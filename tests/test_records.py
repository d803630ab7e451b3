"""The record contract: construction, read-only frozen records, equality
and hashing, the same for every record class of the package."""

import ast
import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

import ms_stability as ms
from ms_stability import config, elliptic, geometry, second_variation, validation
from ms_stability._record import Record


def _strip_system():
    domain = geometry.StripDomain(1.0, 1.0, geometry.BoundaryData(1.0),
                                  geometry.BoundaryData(-1.0))
    return elliptic.StripSystem(domain, geometry.flat_curve(1.0, 16),
                                elliptic.Grid(16, 16))


def _criticality():
    return validation.CriticalityReport(1e-12, np.zeros(8), 1.0, 0.0, True)


# Every field of every record, in constructor order, with a sample value.
SAMPLES = {
    config.BoundarySpec: lambda: dict(
        slope=2.0, constant=0.5, cos=((1, 0.1),), sin=((2, 0.2),)),
    config.CurveSpec: lambda: dict(
        kind="sine", heights=(), mode=2, amplitude=0.05, phase=0.1),
    config.GeometrySpec: lambda: dict(
        kind="strip", a=1.0, b=2.0, a_values=(0.5, 1.0), b_values=(1.0,),
        curve=config.CurveSpec(), top=config.BoundarySpec(1.0, 1.0),
        bottom=config.BoundarySpec(-1.0), length=None, h1=None, h2=None,
        m=None),
    config.EigenSpec: lambda: dict(
        restriction="none", band=0.1, compute_mu=True, modes=(2,)),
    config.FlowDirectionSpec: lambda: dict(kind="cos", mode=2, amplitude=0.5),
    config.ValidateSpec: lambda: dict(
        flow=config.FlowDirectionSpec("const"), step=1e-3, first_tol=1e-5,
        second_tol=0.1, criticality_tol=0.2),
    config.RunConfig: lambda: dict(
        geometry=config.GeometrySpec("strip", 1.0, 1.0), grid_nx=32,
        grid_ny=48, rtol=1e-8, eigen=config.EigenSpec(),
        validate=config.ValidateSpec(), out_path="report.json"),
    geometry.BoundaryData: lambda: dict(slope=1.0, periodic=np.cos),
    geometry.StripDomain: lambda: dict(
        half_height=1.0, period=2.0, top=geometry.BoundaryData(1.0),
        bottom=geometry.BoundaryData(-1.0)),
    geometry.SegmentConfig: lambda: dict(length=1.0, h1=-1.0, h2=2.0),
    geometry.GraphCurve: lambda: dict(
        period=1.0, heights=np.linspace(0.0, 0.1, 8)),
    geometry.FlowSpec: lambda: dict(
        direction=np.ones(8), half_height=1.0, steps=(0.01, -0.01)),
    elliptic.Grid: lambda: dict(nx=16, ny=32),
    elliptic.SolveStats: lambda: dict(
        iterations=3, residual=1e-11,
        components=(elliptic.SolveStats(1, 0.0), elliptic.SolveStats(2, 1e-11))),
    elliptic.SlitField: lambda: dict(
        system=_strip_system(), slope_upper=1.0, slope_lower=-1.0,
        w_upper=np.zeros((17, 16)), w_lower=np.ones((17, 16))),
    second_variation.TildeGram: lambda: dict(
        kind="strip", matrix=np.eye(8), weights=np.ones(8),
        restriction="mean_zero"),
    second_variation.EigenStats: lambda: dict(note="zero operator", method="none"),
    second_variation.SecondVariationResult: lambda: dict(
        value=0.5, dual=0.5, mismatch=1e-12),
    validation.CriticalityReport: lambda: dict(
        sup_residual=1e-12, residuals=np.zeros(8), min_jump=1.0,
        argmin_jump=0.0, jump_ok=True),
    validation.FDEstimate: lambda: dict(
        first=0.0, second=7.2, first_error=1e-14, second_error=5e-4),
    validation.ValidationReport: lambda: dict(
        criticality=_criticality(), base_energy=3.0, ts=np.zeros(5),
        gs=np.ones(5), fd=validation.FDEstimate(0.0, 7.2, 1e-14, 5e-4),
        assembled=second_variation.SecondVariationResult(0.5, 0.5, 0.0),
        first_ok=True, second_ok=False, mismatch=0.01, non_critical=False),
}
MUTABLE = {elliptic.SlitField, second_variation.TildeGram}
# records that store their own read-only copy of an array field
COPIES_ARRAYS = {geometry.GraphCurve: "heights", geometry.FlowSpec: "direction"}

records = pytest.mark.parametrize("cls", list(SAMPLES),
                                  ids=lambda cls: cls.__qualname__)


def same(x, y):
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    return x == y


def test_samples_cover_every_record():
    assert set(Record.__subclasses__()) == set(SAMPLES)


@records
def test_position_keyword_and_defaults_build_the_same_fields(cls):
    fields = SAMPLES[cls]()
    params = inspect.signature(cls).parameters
    assert list(params) == list(fields)
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert same(getattr(by_position, name), value)
        assert same(getattr(by_keyword, name), value)
    required = [name for name in fields
                if params[name].default is inspect.Parameter.empty]
    defaulted = cls(*[fields[name] for name in required])
    for name in fields:
        if name not in required:
            # the class attribute is the default, as parse_config reads it
            assert getattr(defaulted, name) == getattr(cls, name)
            assert getattr(defaulted, name) == params[name].default
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=None)
    if required:
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in required[1:]})


@records
def test_frozen_records_refuse_assignment_and_deletion(cls):
    rec = cls(**SAMPLES[cls]())
    name = next(iter(SAMPLES[cls]()))
    before = getattr(rec, name)
    if cls in MUTABLE:
        setattr(rec, name, None)
        assert getattr(rec, name) is None
        delattr(rec, name)
        return
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert getattr(rec, name) is before


@records
def test_equal_fields_compare_and_hash_equal(cls):
    fields = SAMPLES[cls]()
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    name, value = next((name, value) for name, value in fields.items()
                       if isinstance(value, (int, float, str))
                       and not isinstance(value, bool))
    changed = cls(**{**fields, name: value + (1 if not isinstance(value, str)
                                              else "!")})
    assert a != changed and not a == changed
    assert a != (a,)
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        return
    try:
        hash(tuple(getattr(a, name) for name in fields))
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


ARRAY_FIELDS = [(cls, name) for cls, sample in SAMPLES.items()
                for name, value in sample().items()
                if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("cls, name", ARRAY_FIELDS,
                         ids=lambda x: getattr(x, "__qualname__", x))
def test_array_fields_compare_by_shape_and_values(cls, name):
    fields = SAMPLES[cls]()
    value = fields[name]
    a = cls(**fields)
    assert a == cls(**{**fields, name: value.copy()})
    assert a != cls(**{**fields, name: value + 1.0})
    grown = np.resize(value, (value.shape[0] + 1,) + value.shape[1:])
    assert a != cls(**{**fields, name: grown})
    assert not a == cls(**{**fields, name: grown})


@pytest.mark.parametrize("cls", list(COPIES_ARRAYS), ids=lambda c: c.__qualname__)
def test_array_fields_are_read_only_copies(cls):
    fields = SAMPLES[cls]()
    name = COPIES_ARRAYS[cls]
    rec = cls(**fields)
    assert rec.__dict__[name] is not fields[name]
    with pytest.raises(ValueError, match="read-only"):
        getattr(rec, name)[0] = 1.0


def test_replace_and_as_dict_follow_the_fields():
    flow = config.FlowDirectionSpec()
    assert flow.as_dict() == {"amplitude": 1.0, "kind": "sin", "mode": 1}
    assert list(flow.as_dict()) == ["kind", "mode", "amplitude"]
    moved = flow.replace(mode=3)
    assert moved == config.FlowDirectionSpec("sin", 3, 1.0)
    assert flow.mode == 1
    # replace builds anew, so __post_init__ checks the changed fields too
    curve = geometry.flat_curve(1.0, 8)
    with pytest.raises(ValueError):
        curve.replace(heights=np.zeros(4))


def test_eigen_stats_iterations_is_a_class_constant():
    # not a field: the table above lists note and method alone
    stats = second_variation.EigenStats()
    assert stats.iterations == 0
    assert not hasattr(stats, "converged")


def test_no_record_is_a_dataclass():
    specs = [getattr(config, name) for name in dir(config)
             if name.endswith("Spec") or name == "RunConfig"]
    assert len(specs) == 7
    for obj in [getattr(ms, name) for name in ms.__all__] + specs:
        assert not dataclasses.is_dataclass(obj), obj


def test_no_module_of_the_package_imports_dataclasses():
    package = pathlib.Path(ms.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name
