"""Strict JSON configuration for the command-line interface.

A run is described by the sections geometry / grid / solver / eigen /
validate / output; unknown keys anywhere are rejected with the full key
path, and a key given twice in one object is rejected, so typos cannot
silently fall back to defaults.  Boundary data and flow directions are
given symbolically (slope, constant, sine/cosine overtones) so that
configurations stay serializable and runs stay reproducible.
"""

import json
import math

import numpy as np

from . import elliptic, geometry, validation
from ._record import Record
from .errors import ConfigInvalid
from .second_variation import (DEFAULT_BAND, MIN_SEGMENT_NODES, RESTRICTIONS,
                               SEGMENT_NODES)

SECTIONS = ("geometry", "grid", "solver", "eigen", "validate", "output")


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigInvalid("%s must be an object" % path)


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigInvalid("unknown key %s.%s (allowed: %s)"
                                % (path, key, ", ".join(sorted(allowed))))


def _section(obj, key, path, allowed):
    """obj[key] as a mapping with only allowed keys; {} when absent or null."""
    sub = obj.get(key)
    sub = {} if sub is None else sub
    _require_mapping(sub, path)
    _check_keys(sub, allowed, path)
    return sub


def _scalar(val, where, integer=False, positive=False, minimum=None):
    """val as a float (as an int when integer), or ConfigInvalid naming where.

    The one test of a config value's number type: a bool is not a number,
    and an integer beyond the float range counts as infinite.
    """
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise ConfigInvalid("%s must be %s"
                            % (where, "an integer" if integer else "a number"))
    try:
        as_float = float(val)
    except OverflowError:
        as_float = math.inf
    if not math.isfinite(as_float):
        raise ConfigInvalid("%s %s" % (where, "is too large" if integer
                                       else "must be finite"))
    if positive and val <= 0:
        raise ConfigInvalid("%s must be positive" % where)
    if minimum is not None and val < minimum:
        raise ConfigInvalid("%s must be >= %d" % (where, minimum))
    return val if integer else as_float


def _scalars(raw, where, **checks):
    """A JSON list of numbers as a tuple, each element checked by _scalar."""
    if not isinstance(raw, list):
        raise ConfigInvalid("%s must be a list" % where)
    return tuple(_scalar(v, "%s[%d]" % (where, k), **checks)
                 for k, v in enumerate(raw))


def _number(obj, key, path, default=None, required=False, **checks):
    """obj[key] checked by _scalar; default when absent or null."""
    if obj.get(key) is None:
        if required:
            raise ConfigInvalid("missing required key %s.%s" % (path, key))
        return default
    return _scalar(obj[key], "%s.%s" % (path, key), **checks)


def _integer(obj, key, path, default=None, minimum=None):
    return _number(obj, key, path, default, integer=True, minimum=minimum)


class BoundarySpec(Record, frozen=True):
    """Symbolic wall datum: slope * x + constant + sum of overtones."""

    slope: float = 0.0
    constant: float = 0.0
    cos: tuple = ()   # (mode, amplitude) pairs, b-periodic cosines
    sin: tuple = ()

    def to_boundary_data(self, period):
        terms_cos = self.cos
        terms_sin = self.sin
        const = self.constant

        def periodic(x):
            out = np.full_like(np.asarray(x, dtype=float), const)
            for mode, amp in terms_cos:
                out = out + amp * np.cos(2.0 * np.pi * mode * x / period)
            for mode, amp in terms_sin:
                out = out + amp * np.sin(2.0 * np.pi * mode * x / period)
            return out

        trivial = const == 0.0 and not terms_cos and not terms_sin
        return geometry.BoundaryData(self.slope, None if trivial else periodic)


def _parse_overtones(obj, key, path):
    raw = obj.get(key)
    if raw is None:
        return ()
    where = "%s.%s" % (path, key)
    if not isinstance(raw, list):
        raise ConfigInvalid("%s must be a list of [mode, amplitude]" % where)
    out = []
    for k, item in enumerate(raw):
        at = "%s[%d]" % (where, k)
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigInvalid("%s must be [mode, amplitude]" % at)
        out.append((_scalar(item[0], at + "[0]", integer=True, minimum=1),
                    _scalar(item[1], at + "[1]")))
    return tuple(out)


def _parse_boundary_side(obj, path, default):
    """A wall that is given keeps the default slope, not its constant."""
    if obj is None:
        return default
    _require_mapping(obj, path)
    _check_keys(obj, {"slope", "constant", "cos", "sin"}, path)
    return BoundarySpec(
        slope=_number(obj, "slope", path, default=default.slope),
        constant=_number(obj, "constant", path, default=BoundarySpec.constant),
        cos=_parse_overtones(obj, "cos", path),
        sin=_parse_overtones(obj, "sin", path),
    )


class CurveSpec(Record, frozen=True):
    """Initial curve: flat, an explicit sample list, or one sine mode."""

    kind: str = "flat"
    heights: tuple = ()
    mode: int = 1
    amplitude: float = 0.0
    phase: float = 0.0

    def build(self, period, m):
        """The curve with m = grid.nx samples, one per grid column."""
        if self.kind == "flat":
            return geometry.flat_curve(period, m)
        if self.kind == "samples":
            if len(self.heights) != m:
                raise ConfigInvalid(
                    "geometry.curve.heights has %d samples, expected "
                    "grid.nx = %d" % (len(self.heights), m))
            return geometry.GraphCurve(period, np.array(self.heights))
        return geometry.sinusoidal_curve(period, m, mode=self.mode,
                                         amplitude=self.amplitude,
                                         phase=self.phase)


def _parse_curve(parent, path):
    obj = _section(parent, "curve", path,
                   {"heights", "mode", "amplitude", "phase"})
    heights = obj.get("heights", "flat")
    if heights == "flat":
        if "mode" in obj or "amplitude" in obj or "phase" in obj:
            return CurveSpec(
                kind="sine",
                mode=_integer(obj, "mode", path, default=CurveSpec.mode,
                              minimum=1),
                amplitude=_number(obj, "amplitude", path,
                                  default=CurveSpec.amplitude),
                phase=_number(obj, "phase", path, default=CurveSpec.phase),
            )
        return CurveSpec()
    if isinstance(heights, list):
        for key in ("mode", "amplitude", "phase"):
            if key in obj:
                # a heights list is the whole curve; a sine key next to it
                # would otherwise be dropped unread
                raise ConfigInvalid("%s.%s cannot be combined with a heights "
                                    "list" % (path, key))
        return CurveSpec(kind="samples",
                         heights=_scalars(heights, path + ".heights"))
    raise ConfigInvalid("%s.heights must be 'flat' or a list" % path)


class GeometrySpec(Record, frozen=True):
    kind: str
    a: float = None
    b: float = None
    a_values: tuple = None
    b_values: tuple = None
    curve: CurveSpec = CurveSpec()
    # the canonical separated pair: x + 1 above, -x below
    top: BoundarySpec = BoundarySpec(1.0, 1.0)
    bottom: BoundarySpec = BoundarySpec(-1.0, 0.0)
    length: float = None
    h1: float = None
    h2: float = None
    m: int = None

    def strip_domain(self, a=None, b=None):
        a = self.a if a is None else a
        b = self.b if b is None else b
        if a is None or b is None:
            raise ConfigInvalid("geometry.a and geometry.b are required here")
        return geometry.StripDomain(
            half_height=a, period=b,
            top=self.top.to_boundary_data(b),
            bottom=self.bottom.to_boundary_data(b),
        )

    def segment(self):
        return geometry.SegmentConfig(self.length, self.h1, self.h2)


def _parse_geometry(obj):
    path = "geometry"
    _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "strip":
        allowed = {"kind", "a", "b", "a_values", "b_values", "curve", "boundary"}
        _check_keys(obj, allowed, path)
        boundary = _section(obj, "boundary", path + ".boundary",
                            {"top", "bottom"})
        a = _number(obj, "a", path, positive=True)
        b = _number(obj, "b", path, positive=True)
        values = {key: _scalars(obj[key], "%s.%s" % (path, key), positive=True)
                  for key in ("a_values", "b_values") if obj.get(key) is not None}
        return GeometrySpec(
            kind="strip", a=a, b=b, **values,
            curve=_parse_curve(obj, path + ".curve"),
            top=_parse_boundary_side(boundary.get("top"), path + ".boundary.top",
                                     GeometrySpec.top),
            bottom=_parse_boundary_side(boundary.get("bottom"),
                                        path + ".boundary.bottom",
                                        GeometrySpec.bottom),
        )
    if kind == "segment":
        _check_keys(obj, {"kind", "length", "h1", "h2", "m"}, path)
        return GeometrySpec(
            kind="segment",
            length=_number(obj, "length", path, required=True, positive=True),
            h1=_number(obj, "h1", path, required=True),
            h2=_number(obj, "h2", path, required=True),
            m=_integer(obj, "m", path, default=SEGMENT_NODES,
                       minimum=MIN_SEGMENT_NODES),
        )
    raise ConfigInvalid("geometry.kind must be 'strip' or 'segment'")


class EigenSpec(Record, frozen=True):
    restriction: str = "mean_zero"
    band: float = DEFAULT_BAND
    compute_mu: bool = False
    modes: tuple = (2, 4, 6)


class FlowDirectionSpec(Record, frozen=True):
    kind: str = "sin"   # sin | cos | const
    mode: int = 1
    amplitude: float = 1.0

    def build(self, curve):
        x = curve.abscissae
        if self.kind == "const":
            return self.amplitude * np.ones(curve.m)
        arg = 2.0 * np.pi * self.mode * x / curve.period
        wave = np.sin(arg) if self.kind == "sin" else np.cos(arg)
        return self.amplitude * wave


class ValidateSpec(Record, frozen=True):
    flow: FlowDirectionSpec = FlowDirectionSpec()
    step: float = validation.DEFAULT_STEP
    first_tol: float = validation.DEFAULT_FIRST_TOL
    second_tol: float = validation.DEFAULT_SECOND_TOL
    criticality_tol: float = validation.DEFAULT_CRITICALITY_TOL


class RunConfig(Record, frozen=True):
    geometry: GeometrySpec
    grid_nx: int = 64
    grid_ny: int = 64
    rtol: float = elliptic.DEFAULT_RTOL
    eigen: EigenSpec = EigenSpec()
    validate: ValidateSpec = ValidateSpec()
    out_path: str = None


def parse_config(data):
    """Validate a parsed JSON object and return a RunConfig."""
    _require_mapping(data, "config")
    _check_keys(data, set(SECTIONS), "config")
    if "geometry" not in data:
        raise ConfigInvalid("missing required section: geometry")
    geom = _parse_geometry(data["geometry"])

    grid = _section(data, "grid", "grid", {"nx", "ny"})
    nx = _integer(grid, "nx", "grid", default=RunConfig.grid_nx,
                  minimum=elliptic.MIN_GRID)
    ny = _integer(grid, "ny", "grid", default=RunConfig.grid_ny,
                  minimum=elliptic.MIN_GRID)

    solver = _section(data, "solver", "solver", {"rtol"})
    rtol = _number(solver, "rtol", "solver", default=RunConfig.rtol,
                   positive=True)
    if rtol >= 1.0:
        # CG would return the zero correction and report it as converged
        raise ConfigInvalid("solver.rtol must be below 1")

    eig = _section(data, "eigen", "eigen", {
        "seed", "restriction", "band", "compute_mu", "modes"})
    # deprecated: eigen.seed is still type-checked, but the dense
    # eigensolve has no random start, so the value is dropped
    _integer(eig, "seed", "eigen")
    restriction = eig.get("restriction", EigenSpec.restriction)
    if restriction not in RESTRICTIONS:
        raise ConfigInvalid("eigen.restriction must be %s or %s"
                            % (", ".join(RESTRICTIONS[:-1]), RESTRICTIONS[-1]))
    compute_mu = eig.get("compute_mu", EigenSpec.compute_mu)
    if not isinstance(compute_mu, bool):
        raise ConfigInvalid("eigen.compute_mu must be true or false")
    # unlike other keys, an explicit null here is rejected, not the default
    modes = _scalars(eig.get("modes", list(EigenSpec.modes)), "eigen.modes",
                     integer=True, minimum=2)
    if not modes:
        raise ConfigInvalid("eigen.modes must be a non-empty list of integers")
    eigen = EigenSpec(
        restriction=restriction,
        band=_number(eig, "band", "eigen", default=EigenSpec.band, positive=True),
        compute_mu=compute_mu,
        modes=modes,
    )

    val = _section(data, "validate", "validate", {
        "flow", "step", "first_tol", "second_tol", "criticality_tol"})
    flow_raw = _section(val, "flow", "validate.flow", {"kind", "mode", "amplitude"})
    kind = flow_raw.get("kind", FlowDirectionSpec.kind)
    if kind not in ("sin", "cos", "const"):
        raise ConfigInvalid("validate.flow.kind must be sin, cos or const")
    flow = FlowDirectionSpec(
        kind=kind,
        mode=_integer(flow_raw, "mode", "validate.flow",
                      default=FlowDirectionSpec.mode, minimum=1),
        amplitude=_number(flow_raw, "amplitude", "validate.flow",
                          default=FlowDirectionSpec.amplitude),
    )
    validate = ValidateSpec(flow=flow, **{
        key: _number(val, key, "validate", default=getattr(ValidateSpec, key),
                     positive=True)
        for key in ("step", "first_tol", "second_tol", "criticality_tol")})

    out = _section(data, "output", "output", {"path"})
    out_path = out.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigInvalid("output.path must be a string")

    return RunConfig(
        geometry=geom,
        grid_nx=nx,
        grid_ny=ny,
        rtol=rtol,
        eigen=eigen,
        validate=validate,
        out_path=out_path,
    )


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key given twice (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigInvalid("duplicate key %r in a config object" % key)
        obj[key] = value
    return obj


def load_config(path):
    try:
        with open(path) as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigInvalid("cannot read config file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("config is not valid JSON: %s" % exc) from exc
    return parse_config(data)
