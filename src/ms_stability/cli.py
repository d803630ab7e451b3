"""Command-line interface for strip/segment stability analysis.

Commands
--------
analyze       solve one configuration and report the stability verdict
phase-diagram sweep an (a, b) lattice and emit a deterministic CSV
validate      finite-difference cross-check of the assembled form
compare       numeric solver versus closed-form references
oracle        closed-form values on a strip (no PDE solve); on a segment,
              the same numeric verdict as analyze

Each command writes one report, JSON or (phase-diagram) CSV, to stdout
or to --out, and nothing else to stdout.  Exit codes: 0 stable /
passed, 1 error, 2 cross-check failed, 3 unstable, 4 marginal.  Every
reported number carries a provenance tag: "numeric" (assembled or
iterated), "analytic" (closed form) or "fd" (finite differences of the
energy).
"""

import argparse
import json
import math
import sys

import numpy as np

from . import analytic_oracle, elliptic, geometry, second_variation, validation
from .config import GeometrySpec, load_config
from .errors import ConfigInvalid, StabilityError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_UNSTABLE = 3
EXIT_MARGINAL = 4
VERDICT_EXIT = {
    "strictly_stable": EXIT_OK,
    "unstable": EXIT_UNSTABLE,
    "marginal": EXIT_MARGINAL,
}
CSV_HEADER = "a,b,lambda1_numeric,lambda1_analytic,verdict,grid_nx,grid_ny,residual"


def _fmt(value):
    return "%.9g" % value


def _num(value, provenance):
    """Wrap a scalar result with its provenance for the JSON report."""
    if value is None:
        return None
    value = float(value)
    if math.isinf(value):
        return {"value": None, "infinite": True,
                "sign": 1 if value > 0 else -1, "provenance": provenance}
    return {"value": value, "provenance": provenance}


def _emit(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigInvalid("cannot write output file %s: %s"
                            % (out_path, exc.strerror or exc)) from exc


def _json_report(report):
    """A runner's (text, exit code) for its JSON report."""
    return (json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
            report["exit_code"])


def _require_strip(cfg, command):
    if cfg.geometry.kind != "strip":
        raise ConfigInvalid("%s requires geometry.kind = strip" % command)


def _strip_operator(cfg, domain, curve, gram):
    """Solve the state on cfg's grid; return it, its stats and T on gram."""
    grid = elliptic.Grid(cfg.grid_nx, cfg.grid_ny)
    state, solve_stats = elliptic.solve_state(domain, curve, grid, rtol=cfg.rtol)
    return state, solve_stats, second_variation.TOperator(state, gram,
                                                          rtol=cfg.rtol)


def _wall_scale(geom):
    """Factor by which geom's walls scale T on a flat curve; nan with overtones.

    Linear walls s+ x + c+ and s- x + c- scale T by (s+^2 + s-^2) / 2,
    which is exactly 1 on the canonical pair.  Walls with cos/sin
    overtones have no closed form.
    """
    if geom.top.cos or geom.top.sin or geom.bottom.cos or geom.bottom.sin:
        return math.nan
    return (geom.top.slope ** 2 + geom.bottom.slope ** 2) / 2.0


def _flat_closed_form(geom, a, b):
    """Flat-curve lambda_1 for geom's walls; nan if a wall has overtones."""
    return _wall_scale(geom) * analytic_oracle.lambda1_strip(a, b)


# ----------------------------------------------------------------- analyze

def _analyze_strip(cfg):
    geom = cfg.geometry
    domain = geom.strip_domain()
    curve = geom.curve.build(domain.period, cfg.grid_nx)
    gram = second_variation.assemble_tilde_gram(curve, cfg.eigen.restriction)
    state, solve_stats, op = _strip_operator(cfg, domain, curve, gram)
    crit = validation.criticality_residuals(state)
    lam, lam_stats = second_variation.lambda1(op)
    verdict = second_variation.verdict_from_eigenvalue(lam, band=cfg.eigen.band)

    mu_val = mu_stats = None
    if cfg.eigen.compute_mu:
        mu_val, mu_stats = second_variation.mu(op)

    notes = []
    if lam_stats.note:
        notes.append(lam_stats.note)
    if mu_stats is not None and mu_stats.note:
        notes.append(mu_stats.note)
    if not crit.jump_ok:
        notes.append("jump degenerates: min |[u]| = %.3g at x = %.6g"
                     % (crit.min_jump, crit.argmin_jump))
    if crit.sup_residual > cfg.validate.criticality_tol:
        notes.append("state is far from critical (sup residual %.3g); "
                     "the verdict concerns the assembled form only"
                     % crit.sup_residual)

    results = {
        "lambda1": _num(lam, "numeric"),
        "margin": _num(1.0 - lam, "numeric"),
        "mu": _num(mu_val, "numeric"),
        "sup_residual": _num(crit.sup_residual, "numeric"),
        "min_jump": _num(crit.min_jump, "numeric"),
    }
    lam_flat = _flat_closed_form(geom, domain.half_height, domain.period)
    if curve.max_height() == 0.0 and not math.isnan(lam_flat):
        results["lambda1_analytic_flat"] = _num(lam_flat, "analytic")
        flat_verdict = second_variation.verdict_from_eigenvalue(
            lam_flat, band=cfg.eigen.band)
        if flat_verdict != verdict:
            notes.append("lambda1 %.10g is %s, but the closed form %.10g is "
                         "%s; the grid may be too coarse for this band"
                         % (lam, verdict, lam_flat, flat_verdict))

    report = {
        "command": "analyze",
        "kind": "strip",
        "verdict": verdict,
        "exit_code": VERDICT_EXIT[verdict],
        "config": {
            "a": domain.half_height,
            "b": domain.period,
            "grid_nx": cfg.grid_nx,
            "grid_ny": cfg.grid_ny,
            "curve_m": curve.m,
            "restriction": cfg.eigen.restriction,
            "band": cfg.eigen.band,
            "rtol": cfg.rtol,
        },
        "results": results,
        "stats": {
            "eigen": {
                "method": lam_stats.method,
                "size": len(op.spectrum()[0]),
                "leading": [_num(v, "numeric") for v in
                            second_variation.leading_eigenvalues(op, 3)],
            },
            "state_cg_iterations": solve_stats.iterations,
            "state_cg_residual": _num(solve_stats.residual, "numeric"),
        },
        "notes": notes,
    }
    return _json_report(report)


def _segment_report(cfg, command):
    """Verdict report shared by analyze and oracle on a segment."""
    geom = cfg.geometry
    seg = geom.segment()
    min_eig = second_variation.segment_min_eig(seg, m=geom.m)
    verdict = second_variation.verdict_from_min_eig(min_eig, band=cfg.eigen.band)
    report = {
        "command": command,
        "kind": "segment",
        "verdict": verdict,
        "exit_code": VERDICT_EXIT[verdict],
        "config": {"length": seg.length, "h1": seg.h1, "h2": seg.h2,
                   "m": geom.m, "band": cfg.eigen.band},
        "results": {
            "min_eig": _num(min_eig, "numeric"),
            "second_variation_constant": _num(-seg.h1 - seg.h2, "analytic"),
        },
    }
    return report


def _analyze_segment(cfg):
    report = _segment_report(cfg, "analyze")
    report["results"]["lambda1"] = _num(0.0, "analytic")
    report["results"]["mu"] = _num(math.inf, "analytic")
    report["notes"] = ["empty constraint: the nonlocal operator vanishes on a "
                       "segment, so the verdict is the sign of the local form"]
    return _json_report(report)


def _run_analyze(cfg):
    if cfg.geometry.kind == "segment":
        return _analyze_segment(cfg)
    return _analyze_strip(cfg)


# ----------------------------------------------------------- phase-diagram

def _phase_point(cfg, a, b, curve, gram):
    domain = cfg.geometry.strip_domain(a, b)
    state, _, op = _strip_operator(cfg, domain, curve, gram)
    lam, _ = second_variation.lambda1(op)
    verdict = second_variation.verdict_from_eigenvalue(lam, band=cfg.eigen.band)
    return (a, b, lam, _flat_closed_form(cfg.geometry, a, b), verdict,
            cfg.grid_nx, cfg.grid_ny,
            validation.criticality_residuals(state).sup_residual)


def _run_phase_diagram(cfg):
    """CSV of the lattice, one point after another on the calling thread.

    Each point is a small flat problem (a few ms at 64^2), so a worker
    pool costs more than it overlaps; --jobs is accepted and ignored.
    Each distinct b builds its curve and Gram once.
    """
    _require_strip(cfg, "phase-diagram")
    geom = cfg.geometry
    if geom.curve.kind != "flat":
        raise ConfigInvalid("phase-diagram runs on the flat curve; "
                            "geometry.curve must be flat")
    if geom.a_values is None or geom.b_values is None:
        raise ConfigInvalid(
            "phase-diagram needs geometry.a_values and geometry.b_values")
    curves = {b: geometry.flat_curve(b, cfg.grid_nx) for b in geom.b_values}
    grams = {b: second_variation.assemble_tilde_gram(c, cfg.eigen.restriction)
             for b, c in curves.items()}
    rows = [_phase_point(cfg, a, b, curves[b], grams[b])
            for a in geom.a_values for b in geom.b_values]

    lines = [CSV_HEADER]
    for a, b, lam, lam_an, verdict, nx, ny, residual in rows:
        lines.append(",".join([
            _fmt(a), _fmt(b), _fmt(lam), _fmt(lam_an),
            verdict, str(nx), str(ny), _fmt(residual),
        ]))
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------- validate

def _run_validate(cfg):
    _require_strip(cfg, "validate")
    geom = cfg.geometry
    domain = geom.strip_domain()
    curve = geom.curve.build(domain.period, cfg.grid_nx)
    grid = elliptic.Grid(cfg.grid_nx, cfg.grid_ny)
    psi = cfg.validate.flow.build(curve)
    rep = validation.validate_second_variation(
        domain, curve, grid, psi,
        step=cfg.validate.step, rtol=cfg.rtol,
        first_tol=cfg.validate.first_tol,
        second_tol=cfg.validate.second_tol,
        criticality_tol=cfg.validate.criticality_tol,
    )
    report = {
        "command": "validate",
        "kind": "strip",
        "passed": bool(rep.passed),
        "exit_code": EXIT_OK if rep.passed else EXIT_CHECK_FAILED,
        "config": {
            "a": domain.half_height,
            "b": domain.period,
            "grid_nx": cfg.grid_nx,
            "grid_ny": cfg.grid_ny,
            "flow": cfg.validate.flow.as_dict(),
            "step": cfg.validate.step,
            "first_tol": cfg.validate.first_tol,
            "second_tol": cfg.validate.second_tol,
        },
        "criticality": {
            "sup_residual": _num(rep.criticality.sup_residual, "numeric"),
            "min_jump": _num(rep.criticality.min_jump, "numeric"),
            "jump_ok": bool(rep.criticality.jump_ok),
            "non_critical": bool(rep.non_critical),
        },
        "results": {
            "base_energy": _num(rep.base_energy, "numeric"),
            "fd_first": _num(rep.fd.first, "fd"),
            "fd_first_error": _num(rep.fd.first_error, "fd"),
            "fd_second": _num(rep.fd.second, "fd"),
            "fd_second_error": _num(rep.fd.second_error, "fd"),
            "assembled_second": _num(rep.assembled.value, "numeric"),
            "assembled_dual": _num(rep.assembled.dual, "numeric"),
            "route_mismatch": _num(rep.assembled.mismatch, "numeric"),
            "fd_vs_assembled_mismatch": _num(rep.mismatch, "numeric"),
        },
        "samples": [{"t": _num(t, "numeric"), "energy": _num(g, "numeric")}
                    for t, g in zip(rep.ts.tolist(), rep.gs.tolist())],
        "checks": {"first_ok": bool(rep.first_ok),
                   "second_ok": bool(rep.second_ok)},
    }
    return _json_report(report)


# ----------------------------------------------------------------- compare

def _run_compare(cfg):
    _require_strip(cfg, "compare")
    geom = cfg.geometry
    a = geom.a
    b = geom.b
    if a is None or b is None:
        raise ConfigInvalid("compare needs geometry.a and geometry.b")
    n_fine = cfg.grid_nx
    n_coarse = max(elliptic.MIN_GRID, n_fine // 2)
    if n_coarse == n_fine:
        raise ConfigInvalid("compare needs grid.nx > %d to have a coarser "
                            "grid for its convergence orders" % elliptic.MIN_GRID)

    # the probes use the canonical wall pair whatever geometry.boundary says
    domain = GeometrySpec("strip").strip_domain(a, b)
    curve = geometry.flat_curve(b, cfg.grid_nx)
    gram = second_variation.assemble_tilde_gram(curve, cfg.eigen.restriction)
    _, _, op = _strip_operator(cfg, domain, curve, gram)

    x = curve.abscissae
    mode_rows = []
    for k in cfg.eigen.modes:
        lam_an = analytic_oracle.mode_lambda(k, a, b)
        phi = np.sin(2 * k * math.pi * x / b)
        lam_num = op.rayleigh(phi)
        mode_rows.append((k, lam_num, lam_an, abs(lam_num - lam_an) / lam_an))

    field_rows = []
    for label, probe in (("state", analytic_oracle.state_probe_error),
                         ("jump", analytic_oracle.jump_probe_error)):
        err_c = max(probe(domain, n_coarse))
        err_f = max(probe(domain, n_fine))
        order = math.log2(err_c / err_f) / math.log2(n_fine / n_coarse)
        field_rows.append((label, err_c, err_f, order))

    modes_ok = all(rel <= 0.02 for _, _, _, rel in mode_rows)
    orders_ok = all(order >= 1.8 for _, _, _, order in field_rows)
    code = EXIT_OK if modes_ok and orders_ok else EXIT_CHECK_FAILED

    report = {
        "command": "compare",
        "kind": "strip",
        "passed": code == EXIT_OK,
        "exit_code": code,
        "config": {"a": a, "b": b, "grid_nx": cfg.grid_nx,
                   "grid_ny": cfg.grid_ny, "modes": list(cfg.eigen.modes),
                   "restriction": cfg.eigen.restriction},
        "modes": [
            {"mode": k,
             "numeric": _num(num, "numeric"),
             "analytic": _num(an, "analytic"),
             "rel_error": _num(rel, "numeric")}
            for k, num, an, rel in mode_rows
        ],
        "fields": [
            {"solve": label,
             "grid_coarse": n_coarse,
             "grid_fine": n_fine,
             "error_coarse": _num(err_c, "numeric"),
             "error_fine": _num(err_f, "numeric"),
             "order": _num(order, "numeric")}
            for label, err_c, err_f, order in field_rows
        ],
    }
    return _json_report(report)


# ------------------------------------------------------------------ oracle

def _run_oracle(cfg):
    geom = cfg.geometry
    if geom.kind == "segment":
        return _json_report(_segment_report(cfg, "oracle"))

    a = geom.a
    b = geom.b
    if a is None or b is None:
        raise ConfigInvalid("oracle needs geometry.a and geometry.b")
    scale = _wall_scale(geom)
    if math.isnan(scale):
        raise ConfigInvalid("oracle has no closed form for geometry.boundary "
                            "walls with cos/sin overtones")
    lam = scale * analytic_oracle.lambda1_strip(a, b)
    verdict = second_variation.verdict_from_eigenvalue(lam, band=cfg.eigen.band)
    report = {
        "command": "oracle",
        "kind": "strip",
        "verdict": verdict,
        "exit_code": VERDICT_EXIT[verdict],
        "config": {"a": a, "b": b, "band": cfg.eigen.band,
                   "modes": list(cfg.eigen.modes)},
        "results": {
            "lambda1": _num(lam, "analytic"),
            "margin": _num(1.0 - lam, "analytic"),
            "modes": {
                str(k): _num(scale * analytic_oracle.mode_lambda(k, a, b),
                             "analytic")
                for k in cfg.eigen.modes
            },
        },
    }
    return _json_report(report)


# -------------------------------------------------------------------- main

_RUNNERS = {
    "analyze": _run_analyze,
    "phase-diagram": _run_phase_diagram,
    "validate": _run_validate,
    "compare": _run_compare,
    "oracle": _run_oracle,
}
COMMANDS = tuple(_RUNNERS)


def _parse_grid_flag(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigInvalid("--grid expects NX,NY")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigInvalid("--grid expects integers, got %r" % text)
    if min(nx, ny) < elliptic.MIN_GRID:
        raise ConfigInvalid("--grid sizes must be >= %d" % elliptic.MIN_GRID)
    return nx, ny


def _apply_overrides(cfg, args):
    if args.grid is not None:
        nx, ny = _parse_grid_flag(args.grid)
        cfg = cfg.replace(grid_nx=nx, grid_ny=ny)
    if args.restriction is not None:
        cfg = cfg.replace(eigen=cfg.eigen.replace(restriction=args.restriction))
    if args.out is not None:
        cfg = cfg.replace(out_path=args.out)
    return cfg


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ms-stability",
        description="Stability of critical strip/segment configurations of "
                    "the homogeneous planar free-discontinuity energy.")
    parser.add_argument("command", choices=COMMANDS,
                        help="analyze: stability verdict; phase-diagram: CSV "
                             "over an (a, b) lattice; validate: finite-"
                             "difference check of the assembled form; "
                             "compare: solver against closed forms; oracle: "
                             "closed-form values on a strip, the local-form "
                             "verdict on a segment")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON configuration file")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--grid", default=None, metavar="NX,NY",
                        help="override grid.nx and grid.ny")
    parser.add_argument("--restriction", default=None,
                        choices=second_variation.RESTRICTIONS,
                        help="override eigen.restriction, which only "
                             "analyze on a strip and phase-diagram read")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted and checked (N >= 1) but ignored: "
                             "every command runs serially")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.jobs < 1:  # --jobs has no effect, but stays validated
            raise ConfigInvalid("--jobs must be >= 1")
        text, code = _RUNNERS[args.command](cfg)
        _emit(text, cfg.out_path)
        return code
    except (StabilityError, ValueError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
