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
from functools import partial

import numpy as np

from . import elliptic, geometry, validation
from ._record import Record
from .errors import ConfigInvalid
from .second_variation import (DEFAULT_BAND, MIN_SEGMENT_NODES, RESTRICTIONS,
                               SEGMENT_NODES)


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


# every mode key's rule: k >= 1 periods of cos(2 pi k x / b) across the strip
_MODE_INDEX = {"integer": True, "minimum": 1}


def _scalars(raw, where, **checks):
    """A JSON list of numbers as a tuple, each element checked by _scalar."""
    if not isinstance(raw, list):
        raise ConfigInvalid("%s must be a list" % where)
    return tuple(_scalar(v, "%s[%d]" % (where, k), **checks)
                 for k, v in enumerate(raw))


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


class EigenSpec(Record, frozen=True):
    restriction: str = "mean_zero"
    band: float = DEFAULT_BAND
    compute_mu: bool = False
    modes: tuple = (1, 2, 3)


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


def _keys(obj, table, where):
    """Refuse obj unless it is an object whose keys are all in table."""
    if not isinstance(obj, dict):
        raise ConfigInvalid("%s must be an object" % where)
    for key in obj:
        if key not in table:
            raise ConfigInvalid("unknown key %s.%s (allowed: %s)"
                                % (where, key, ", ".join(sorted(table))))


def _values(obj, table, path):
    """obj's values in table order, each read by its key's reader from the
    value and its key path.  A None result, a null that takes the default,
    is left out like an absent key; a dict result is spread into the rest."""
    values = {}
    for key, read in table.items():
        if key in obj:
            value = read(obj[key], path + key)
            if isinstance(value, dict):
                values.update(value)
            elif value is not None:
                values[key] = value
    return values


def _section(obj, where, table, record=dict, prefix=""):
    """obj read by table into record, each key prefixed; null is the default."""
    if obj is None:
        return None
    _keys(obj, table, where)
    values = _values(obj, table, where + ".")
    return record(**{prefix + key: value for key, value in values.items()})


def _number(value, where, required=False, below=None, **checks):
    if value is None:
        if required:
            raise ConfigInvalid("missing required key %s" % where)
        return None
    value = _scalar(value, where, **checks)
    if below is not None and value >= below:
        raise ConfigInvalid("%s must be below %g" % (where, below))
    return value


def _axis(value, where):
    """A phase-diagram axis: a non-empty list of positive numbers."""
    if value is None:
        return None
    values = _scalars(value, where, positive=True)
    if not values:
        raise ConfigInvalid("%s must be a non-empty list" % where)
    return values


def _choice(value, where, options):
    if value not in options:
        raise ConfigInvalid("%s must be %s or %s"
                            % (where, ", ".join(options[:-1]), options[-1]))
    return value


def _flag(value, where):
    if not isinstance(value, bool):
        raise ConfigInvalid("%s must be true or false" % where)
    return value


def _path(value, where):
    if value is not None and not isinstance(value, str):
        raise ConfigInvalid("%s must be a string" % where)
    return value


def _overtones(value, where):
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigInvalid("%s must be a list of [mode, amplitude]" % where)
    out = []
    for k, item in enumerate(value):
        at = "%s[%d]" % (where, k)
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigInvalid("%s must be [mode, amplitude]" % at)
        out.append((_scalar(item[0], at + "[0]", **_MODE_INDEX),
                    _scalar(item[1], at + "[1]")))
    return tuple(out)


def _modes(value, where):
    modes = _scalars(value, where, **_MODE_INDEX)
    if not modes:
        raise ConfigInvalid("%s must be a non-empty list of integers" % where)
    return modes


def _seed(value, where):
    """Deprecated: checked, then dropped; the eigensolve has no random start."""
    _number(value, where, integer=True)


def _heights(value, where):
    if value == "flat":
        return None
    if not isinstance(value, list):
        raise ConfigInvalid("%s must be 'flat' or a list" % where)
    return _scalars(value, where)


def _curve(obj, where):
    if obj is None:
        return None
    _keys(obj, _CURVE, where)
    sine = [key for key in _CURVE if key != "heights" and key in obj]
    if sine and isinstance(obj.get("heights"), list):
        # a heights list is the whole curve: a sine key would go unread
        raise ConfigInvalid("%s.%s cannot be combined with a heights list"
                            % (where, sine[0]))
    values = _values(obj, _CURVE, where + ".")
    # a sine key selects the sine curve even when it is null
    kind = "samples" if "heights" in values else "sine" if sine else "flat"
    return CurveSpec(kind, **values)


def _geometry(obj, where):
    """The kind picks the table, before any key is checked."""
    if not isinstance(obj, dict):
        raise ConfigInvalid("%s must be an object" % where)
    kind = obj.get("kind")
    if kind == "segment":
        # every key is read, so a required one that is absent is missing
        return _section({**dict.fromkeys(_SEGMENT), **obj}, where, _SEGMENT,
                        partial(GeometrySpec, m=SEGMENT_NODES))
    if kind != "strip":
        raise ConfigInvalid("%s.kind must be 'strip' or 'segment'" % where)
    _keys(obj, _STRIP, where)
    # the boundary's keys are checked before any geometry value is read
    if obj.get("boundary") is not None:
        _keys(obj["boundary"], _BOUNDARY, where + ".boundary")
    return GeometrySpec(**_values(obj, _STRIP, where + "."))


# One table per object: each key's reader, in the order the values are read.
_KIND = partial(_choice, options=("strip", "segment"))   # checked by _geometry
_POSITIVE = partial(_number, positive=True)
_REQUIRED = partial(_number, required=True)
_MODE = partial(_number, **_MODE_INDEX)
_GRID = partial(_number, integer=True, minimum=elliptic.MIN_GRID)
_WALL = {"slope": _number, "constant": _number, "cos": _overtones, "sin": _overtones}
# a wall that is given keeps its canonical slope, but not its constant
_BOUNDARY = {side: partial(_section, table=_WALL, record=partial(
    BoundarySpec, slope=getattr(GeometrySpec, side).slope))
    for side in ("top", "bottom")}
_CURVE = {"heights": _heights, "mode": _MODE, "amplitude": _number, "phase": _number}
_STRIP = {"kind": _KIND, "a": _POSITIVE, "b": _POSITIVE,
          "a_values": _axis, "b_values": _axis,
          "curve": _curve, "boundary": partial(_section, table=_BOUNDARY)}
_SEGMENT = {"kind": _KIND, "length": partial(_REQUIRED, positive=True),
            "h1": _REQUIRED, "h2": _REQUIRED,
            "m": partial(_number, integer=True, minimum=MIN_SEGMENT_NODES)}
_CONFIG = {
    "geometry": _geometry,
    "grid": partial(_section, table={"nx": _GRID, "ny": _GRID}, prefix="grid_"),
    # at rtol >= 1 CG would return the zero correction as converged
    "solver": partial(_section, table={"rtol": partial(_POSITIVE, below=1.0)}),
    "eigen": partial(_section, record=EigenSpec, table={
        "seed": _seed, "restriction": partial(_choice, options=RESTRICTIONS),
        "compute_mu": _flag, "modes": _modes, "band": _POSITIVE}),
    "validate": partial(_section, record=ValidateSpec, table={
        "flow": partial(_section, record=FlowDirectionSpec, table={
            "kind": partial(_choice, options=("sin", "cos", "const")),
            "mode": _MODE, "amplitude": _number}),
        "step": _POSITIVE, "first_tol": _POSITIVE, "second_tol": _POSITIVE,
        "criticality_tol": _POSITIVE}),
    "output": partial(_section, table={"path": _path}, prefix="out_"),
}


def parse_config(data):
    """Validate a parsed JSON object and return a RunConfig."""
    _keys(data, _CONFIG, "config")
    if "geometry" not in data:
        raise ConfigInvalid("missing required section: geometry")
    return RunConfig(**_values(data, _CONFIG, ""))


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
