"""Command-line interface for strip/segment stability analysis.

Subcommands
-----------
analyze       solve one configuration and report the stability verdict
phase-diagram sweep an (a, b) lattice and emit a deterministic CSV
validate      finite-difference cross-check of the assembled form
compare       numeric solver versus closed-form references
oracle        closed-form values only (no PDE solve on the strip)

Exit codes: 0 stable / passed, 1 error, 2 cross-check failed,
3 unstable, 4 marginal.  Every reported number carries a provenance
tag: "numeric" (assembled/iterated), "analytic" (closed form) or "fd"
(finite differences of the energy).
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import analytic_oracle, elliptic, geometry, second_variation, validation
from .config import load_config
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
SEED_ENV = "MS_STABILITY_SEED"


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


def _resolve_seed(cfg):
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigInvalid("%s must be an integer, got %r" % (SEED_ENV, env))
    if cfg.eigen.seed is not None:
        return cfg.eigen.seed
    return second_variation.DEFAULT_SEED


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require_strip(cfg, command):
    if cfg.geometry.kind != "strip":
        raise ConfigInvalid("%s requires geometry.kind = strip" % command)


def _eigen_stats_dict(stats):
    if stats is None:
        return None
    return {
        "iterations": stats.iterations,
        "converged": stats.converged,
        "last_change": _num(stats.change, "numeric"),
        "cg_iterations": stats.cg_iterations,
        "note": stats.note,
    }


# ----------------------------------------------------------------- analyze

def _analyze_strip(cfg, seed):
    geom = cfg.geometry
    domain = geom.strip_domain()
    curve = geom.curve.build(domain.period, cfg.grid_nx)
    grid = elliptic.Grid(cfg.grid_nx, cfg.grid_ny)
    state, solve_stats = elliptic.solve_state(domain, curve, grid, rtol=cfg.rtol)
    crit = validation.criticality_residuals(state)
    gram = second_variation.assemble_tilde_gram(
        curve, restriction=cfg.eigen.restriction)
    op = second_variation.TOperator(state, gram, rtol=cfg.rtol)
    lam, lam_stats = second_variation.lambda1(
        op, tol=cfg.eigen.tol, max_iter=cfg.eigen.max_iter, seed=seed)
    verdict = second_variation.verdict_from_eigenvalue(lam, band=cfg.eigen.band)

    mu_val = mu_stats = None
    if cfg.eigen.compute_mu:
        mu_val, mu_stats = second_variation.mu(
            op, tol=cfg.eigen.tol, max_iter=cfg.eigen.max_iter, seed=seed)

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
    if curve.max_height() == 0.0:
        results["lambda1_analytic_flat"] = _num(
            analytic_oracle.lambda1_strip(domain.half_height, domain.period),
            "analytic")

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
            "eigen_tol": cfg.eigen.tol,
            "seed": seed,
        },
        "results": results,
        "stats": {
            "lambda1": _eigen_stats_dict(lam_stats),
            "mu": _eigen_stats_dict(mu_stats),
            "state_cg_iterations": solve_stats.iterations,
            "state_cg_residual": _num(solve_stats.residual, "numeric"),
        },
        "notes": notes,
    }
    return report, VERDICT_EXIT[verdict]


def _segment_report(cfg, command):
    """Verdict report shared by analyze and oracle on a segment."""
    geom = cfg.geometry
    seg = geom.segment()
    min_eig = analytic_oracle.segment_min_eig(seg, m=geom.m)
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
    return report, VERDICT_EXIT[verdict]


def _analyze_segment(cfg, seed):
    report, code = _segment_report(cfg, "analyze")
    report["config"]["seed"] = seed
    report["results"]["lambda1"] = _num(0.0, "analytic")
    report["results"]["mu"] = _num(math.inf, "analytic")
    report["notes"] = ["empty constraint: the nonlocal operator vanishes on a "
                       "segment, so the verdict is the sign of the local form"]
    return report, code


def _run_analyze(cfg, seed):
    if cfg.geometry.kind == "segment":
        return _analyze_segment(cfg, seed)
    return _analyze_strip(cfg, seed)


# ----------------------------------------------------------- phase-diagram

def _phase_point(cfg, seed, index, a, b):
    geom = cfg.geometry
    domain = geometry.StripDomain(
        half_height=a, period=b,
        top=geom.top.to_boundary_data(b),
        bottom=geom.bottom.to_boundary_data(b),
    )
    curve = geometry.flat_curve(b, cfg.grid_nx)
    grid = elliptic.Grid(cfg.grid_nx, cfg.grid_ny)
    state, _ = elliptic.solve_state(domain, curve, grid, rtol=cfg.rtol)
    crit = validation.criticality_residuals(state)
    gram = second_variation.assemble_tilde_gram(
        curve, restriction=cfg.eigen.restriction)
    op = second_variation.TOperator(state, gram, rtol=cfg.rtol)
    lam, _ = second_variation.lambda1(
        op, tol=cfg.eigen.tol, max_iter=cfg.eigen.max_iter,
        seed=[seed, index[0], index[1]])
    lam_an = analytic_oracle.lambda1_strip(a, b)
    verdict = second_variation.verdict_from_eigenvalue(lam, band=cfg.eigen.band)
    return (a, b, lam, lam_an, verdict, cfg.grid_nx, cfg.grid_ny,
            crit.sup_residual)


def _run_phase_diagram(cfg, seed, jobs):
    _require_strip(cfg, "phase-diagram")
    geom = cfg.geometry
    if geom.a_values is None or geom.b_values is None:
        raise ConfigInvalid(
            "phase-diagram needs geometry.a_values and geometry.b_values")
    points = [((i, j), a, b)
              for i, a in enumerate(geom.a_values)
              for j, b in enumerate(geom.b_values)]

    def worker(point):
        index, a, b = point
        return _phase_point(cfg, seed, index, a, b)

    if jobs > 1 and points:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(worker, points))
    else:
        rows = [worker(p) for p in points]

    lines = [CSV_HEADER]
    for a, b, lam, lam_an, verdict, nx, ny, residual in rows:
        lines.append(",".join([
            _fmt(a), _fmt(b), _fmt(lam), _fmt(lam_an),
            verdict, str(nx), str(ny), _fmt(residual),
        ]))
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------- validate

def _run_validate(cfg, seed):
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
            "flow": {"kind": cfg.validate.flow.kind,
                     "mode": cfg.validate.flow.mode,
                     "amplitude": cfg.validate.flow.amplitude},
            "step": cfg.validate.step,
            "first_tol": cfg.validate.first_tol,
            "second_tol": cfg.validate.second_tol,
            "seed": seed,
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
    return report, report["exit_code"]


# ----------------------------------------------------------------- compare

def _drift_domain(a, b):
    """Canonical separated pair: slopes +1 / -1 with a unit offset."""
    return geometry.StripDomain(
        a, b,
        geometry.BoundaryData(1.0, lambda x: np.ones_like(np.asarray(x, float))),
        geometry.BoundaryData(-1.0),
    )


def _state_probe_error(n_grid, a, b):
    """Max nodal error against the cosh-profile wall-datum solution."""
    k = 2.0 * math.pi / b
    domain = geometry.StripDomain(
        a, b,
        geometry.BoundaryData(0.0, lambda x: np.cos(k * x)),
        geometry.BoundaryData(0.0),
    )
    curve = geometry.flat_curve(b, n_grid)
    grid = elliptic.Grid(n_grid, n_grid)
    state, _ = elliptic.solve_state(domain, curve, grid)
    x = curve.abscissae
    y = a * np.arange(grid.ny + 1) / grid.ny
    exact = np.cos(k * x)[None, :] * np.cosh(k * y)[:, None] / math.cosh(k * a)
    return max(np.max(np.abs(state.w_upper - exact)),
               np.max(np.abs(state.w_lower)))


def _jump_probe_error(n_grid, a, b):
    """Max nodal error of the transport solve against the sinh-mode field."""
    domain = _drift_domain(a, b)
    curve = geometry.flat_curve(b, n_grid)
    grid = elliptic.Grid(n_grid, n_grid)
    state, _ = elliptic.solve_state(domain, curve, grid)
    phi = np.cos(2.0 * math.pi * curve.abscissae / b)
    field, _ = elliptic.solve_jump_source(state, phi)
    amp = 1.0 / math.cosh(2.0 * math.pi * a / b)
    ref = analytic_oracle.strip_mode_field(2, amp, domain, grid)
    return max(np.max(np.abs(field.w_upper - ref.w_upper)),
               np.max(np.abs(field.w_lower - ref.w_lower)))


def _run_compare(cfg, seed):
    _require_strip(cfg, "compare")
    geom = cfg.geometry
    a = geom.a
    b = geom.b
    if a is None or b is None:
        raise ConfigInvalid("compare needs geometry.a and geometry.b")

    domain = _drift_domain(a, b)
    curve = geometry.flat_curve(b, cfg.grid_nx)
    grid = elliptic.Grid(cfg.grid_nx, cfg.grid_ny)
    state, _ = elliptic.solve_state(domain, curve, grid, rtol=cfg.rtol)
    gram = second_variation.assemble_tilde_gram(
        curve, restriction=cfg.eigen.restriction)
    op = second_variation.TOperator(state, gram, rtol=cfg.rtol)

    x = curve.abscissae
    mode_rows = []
    for n in cfg.eigen.modes:
        lam_an = analytic_oracle.mode_lambda(n, a, b)
        phi = np.sin(n * math.pi * x / b)
        lam_num = op.rayleigh(phi)
        mode_rows.append((n, lam_num, lam_an, abs(lam_num - lam_an) / lam_an))

    n_fine = cfg.grid_nx
    n_coarse = max(16, n_fine // 2)
    field_rows = []
    for label, probe in (("state", _state_probe_error),
                         ("jump", _jump_probe_error)):
        err_c = probe(n_coarse, a, b)
        err_f = probe(n_fine, a, b)
        order = math.log2(err_c / err_f) / math.log2(n_fine / n_coarse)
        field_rows.append((label, err_c, err_f, order))

    modes_ok = all(rel <= 0.02 for _, _, _, rel in mode_rows)
    orders_ok = all(order >= 1.8 for _, _, _, order in field_rows)
    code = EXIT_OK if modes_ok and orders_ok else EXIT_CHECK_FAILED

    lines = ["mode comparison (probe data: separated drift pair, flat curve)",
             "%-6s %-16s %-16s %s" % ("mode", "numeric", "analytic", "rel_error")]
    for n, num, an, rel in mode_rows:
        lines.append("%-6d %-16s %-16s %s" % (n, _fmt(num), _fmt(an), _fmt(rel)))
    lines.append("")
    lines.append("field convergence (max nodal error, %d^2 -> %d^2 grid)"
                 % (n_coarse, n_fine))
    lines.append("%-6s %-16s %-16s %s" % ("solve", "coarse", "fine", "order"))
    for label, err_c, err_f, order in field_rows:
        lines.append("%-6s %-16s %-16s %s"
                     % (label, _fmt(err_c), _fmt(err_f), _fmt(order)))
    lines.append("")
    lines.append("result: %s" % ("PASS" if code == EXIT_OK else "FAIL"))
    table = "\n".join(lines) + "\n"

    report = {
        "command": "compare",
        "kind": "strip",
        "passed": code == EXIT_OK,
        "exit_code": code,
        "config": {"a": a, "b": b, "grid_nx": cfg.grid_nx,
                   "grid_ny": cfg.grid_ny, "modes": list(cfg.eigen.modes),
                   "restriction": cfg.eigen.restriction, "seed": seed},
        "modes": [
            {"mode": n,
             "numeric": _num(num, "numeric"),
             "analytic": _num(an, "analytic"),
             "rel_error": _num(rel, "numeric")}
            for n, num, an, rel in mode_rows
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
    return table, report, code


# ------------------------------------------------------------------ oracle

def _run_oracle(cfg):
    geom = cfg.geometry
    if geom.kind == "segment":
        return _segment_report(cfg, "oracle")

    a = geom.a
    b = geom.b
    if a is None or b is None:
        raise ConfigInvalid("oracle needs geometry.a and geometry.b")
    lam = analytic_oracle.lambda1_strip(a, b)
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
                str(n): _num(analytic_oracle.mode_lambda(n, a, b), "analytic")
                for n in cfg.eigen.modes
            },
        },
    }
    return report, VERDICT_EXIT[verdict]


# -------------------------------------------------------------------- main

def _parse_grid_flag(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigInvalid("--grid expects NX,NY")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigInvalid("--grid expects integers, got %r" % text)
    if nx < 16 or ny < 16:
        raise ConfigInvalid("--grid sizes must be >= 16")
    return nx, ny


def _apply_overrides(cfg, args):
    if args.grid is not None:
        nx, ny = _parse_grid_flag(args.grid)
        cfg = replace(cfg, grid_nx=nx, grid_ny=ny)
    if args.restriction is not None:
        cfg = replace(cfg, eigen=replace(cfg.eigen, restriction=args.restriction))
    if args.out is not None:
        cfg = replace(cfg, out_path=args.out)
    return cfg


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ms-stability",
        description="Stability of critical strip/segment configurations of "
                    "the homogeneous planar free-discontinuity energy.")
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "analyze": "stability verdict for one configuration",
        "phase-diagram": "CSV sweep over an (a, b) lattice",
        "validate": "finite-difference check of the assembled form",
        "compare": "numeric solver versus closed-form references",
        "oracle": "closed-form values only",
    }
    for name in ("analyze", "phase-diagram", "validate", "compare", "oracle"):
        cmd = sub.add_parser(name, help=help_text[name])
        cmd.add_argument("--config", required=True, metavar="PATH",
                         help="JSON configuration file")
        cmd.add_argument("--out", default=None, metavar="PATH",
                         help="write the report here instead of stdout")
        cmd.add_argument("--grid", default=None, metavar="NX,NY",
                         help="override grid.nx and grid.ny")
        cmd.add_argument("--restriction", default=None,
                         choices=("mean_zero", "endpoint_zero", "none"),
                         help="override eigen.restriction")
        cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker threads (phase-diagram only)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        seed = _resolve_seed(cfg)
        if args.jobs < 1:
            raise ConfigInvalid("--jobs must be >= 1")

        if args.command == "analyze":
            report, code = _run_analyze(cfg, seed)
            _emit(_json_text(report), cfg.out_path)
        elif args.command == "phase-diagram":
            csv_text, code = _run_phase_diagram(cfg, seed, args.jobs)
            _emit(csv_text, cfg.out_path)
        elif args.command == "validate":
            report, code = _run_validate(cfg, seed)
            _emit(_json_text(report), cfg.out_path)
        elif args.command == "compare":
            table, report, code = _run_compare(cfg, seed)
            sys.stdout.write(table)
            if cfg.out_path:
                _emit(_json_text(report), cfg.out_path)
        else:
            report, code = _run_oracle(cfg)
            _emit(_json_text(report), cfg.out_path)
        return code
    except (StabilityError, ValueError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
