"""Strict JSON configuration for the command-line interface.

A run is described by the sections geometry / grid / solver / eigen /
validate / output; unknown keys anywhere are rejected with the full key
path so typos cannot silently fall back to defaults.  Boundary data and
flow directions are given symbolically (slope, constant, sine/cosine
overtones) so that configurations stay serializable and runs stay
reproducible.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import elliptic, geometry, validation
from .errors import ConfigInvalid
from .second_variation import RESTRICTIONS

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


def _float(val):
    """float(val), reading an integer beyond the float range as infinite."""
    try:
        return float(val)
    except OverflowError:
        return math.inf if val > 0 else -math.inf


def _number(obj, key, path, default=None, required=False, positive=False):
    if key not in obj or obj[key] is None:
        if required:
            raise ConfigInvalid("missing required key %s.%s" % (path, key))
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigInvalid("%s.%s must be a number" % (path, key))
    val = _float(val)
    if not math.isfinite(val):
        raise ConfigInvalid("%s.%s must be finite" % (path, key))
    if positive and val <= 0:
        raise ConfigInvalid("%s.%s must be positive" % (path, key))
    return val


def _integer(obj, key, path, default=None, minimum=None):
    if key not in obj or obj[key] is None:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigInvalid("%s.%s must be an integer" % (path, key))
    if minimum is not None and val < minimum:
        raise ConfigInvalid("%s.%s must be >= %d" % (path, key, minimum))
    return val


@dataclass(frozen=True)
class BoundarySpec:
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
    raw = obj.get(key, [])
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigInvalid("%s.%s must be a list of [mode, amplitude]" % (path, key))
    out = []
    for k, item in enumerate(raw):
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or isinstance(item[0], bool) or not isinstance(item[0], int)
                or item[0] < 1 or isinstance(item[1], bool)
                or not isinstance(item[1], (int, float))
                or not math.isfinite(_float(item[1]))):
            raise ConfigInvalid(
                "%s.%s[%d] must be [positive-int mode, finite amplitude]"
                % (path, key, k))
        out.append((item[0], float(item[1])))
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


@dataclass(frozen=True)
class CurveSpec:
    """Initial curve: flat, an explicit sample list, or one sine mode."""

    m: int = None            # defaults to grid.nx when omitted
    kind: str = "flat"
    heights: tuple = ()
    mode: int = 1
    amplitude: float = 0.0
    phase: float = 0.0

    def build(self, period, default_m):
        m = self.m if self.m is not None else default_m
        if self.kind == "flat":
            return geometry.flat_curve(period, m)
        if self.kind == "samples":
            if len(self.heights) != m:
                raise ConfigInvalid(
                    "geometry.curve.heights has %d samples, expected m = %d"
                    % (len(self.heights), m))
            return geometry.GraphCurve(period, np.array(self.heights))
        return geometry.sinusoidal_curve(period, m, mode=self.mode,
                                         amplitude=self.amplitude,
                                         phase=self.phase)


def _parse_curve(parent, path):
    obj = _section(parent, "curve", path,
                   {"m", "heights", "mode", "amplitude", "phase"})
    m = _integer(obj, "m", path, default=CurveSpec.m, minimum=8)
    heights = obj.get("heights", "flat")
    if isinstance(heights, str):
        if heights != "flat":
            raise ConfigInvalid("%s.heights must be 'flat' or a list" % path)
        if "mode" in obj or "amplitude" in obj or "phase" in obj:
            return CurveSpec(
                m=m, kind="sine",
                mode=_integer(obj, "mode", path, default=CurveSpec.mode,
                              minimum=1),
                amplitude=_number(obj, "amplitude", path,
                                  default=CurveSpec.amplitude),
                phase=_number(obj, "phase", path, default=CurveSpec.phase),
            )
        return CurveSpec(m=m)
    if isinstance(heights, list):
        for k, v in enumerate(heights):
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not math.isfinite(_float(v)):
                raise ConfigInvalid("%s.heights[%d] must be a finite number"
                                    % (path, k))
        vals = tuple(float(v) for v in heights)
        if m is None:
            m = len(vals)
        elif m != len(vals):
            raise ConfigInvalid(
                "%s.heights has %d samples, expected m = %d"
                % (path, len(vals), m))
        return CurveSpec(m=m, kind="samples", heights=vals)
    raise ConfigInvalid("%s.heights must be 'flat' or a list" % path)


def _parse_values(obj, key, path):
    raw = obj.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ConfigInvalid("%s.%s must be a list of numbers" % (path, key))
    out = []
    for k, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(_float(v)) or v <= 0:
            raise ConfigInvalid("%s.%s[%d] must be a positive number"
                                % (path, key, k))
        out.append(float(v))
    return tuple(out)


@dataclass(frozen=True)
class GeometrySpec:
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
        return GeometrySpec(
            kind="strip",
            a=_number(obj, "a", path, positive=True),
            b=_number(obj, "b", path, positive=True),
            a_values=_parse_values(obj, "a_values", path),
            b_values=_parse_values(obj, "b_values", path),
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
            m=_integer(obj, "m", path, default=128, minimum=16),
        )
    raise ConfigInvalid("geometry.kind must be 'strip' or 'segment'")


@dataclass(frozen=True)
class EigenSpec:
    restriction: str = "mean_zero"
    band: float = 0.02
    compute_mu: bool = False
    modes: tuple = (2, 4, 6)


@dataclass(frozen=True)
class FlowDirectionSpec:
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


@dataclass(frozen=True)
class ValidateSpec:
    flow: FlowDirectionSpec = FlowDirectionSpec()
    step: float = validation.DEFAULT_STEP
    first_tol: float = validation.DEFAULT_FIRST_TOL
    second_tol: float = validation.DEFAULT_SECOND_TOL
    criticality_tol: float = validation.DEFAULT_CRITICALITY_TOL


@dataclass(frozen=True)
class RunConfig:
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
    nx = _integer(grid, "nx", "grid", default=RunConfig.grid_nx, minimum=16)
    ny = _integer(grid, "ny", "grid", default=RunConfig.grid_ny, minimum=16)

    solver = _section(data, "solver", "solver", {"rtol"})
    rtol = _number(solver, "rtol", "solver", default=RunConfig.rtol,
                   positive=True)

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
    modes_raw = eig.get("modes", list(EigenSpec.modes))
    if (not isinstance(modes_raw, list) or not modes_raw
            or any(isinstance(v, bool) or not isinstance(v, int) for v in modes_raw)):
        raise ConfigInvalid("eigen.modes must be a non-empty list of integers")
    eigen = EigenSpec(
        restriction=restriction,
        band=_number(eig, "band", "eigen", default=EigenSpec.band, positive=True),
        compute_mu=compute_mu,
        modes=tuple(modes_raw),
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


def load_config(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigInvalid("cannot read config file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("config is not valid JSON: %s" % exc) from exc
    return parse_config(data)
