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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

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


def _strip_operator(cfg, domain, curve):
    """Solve the state on cfg's grid; return it, its stats and T."""
    grid = elliptic.Grid(cfg.grid_nx, cfg.grid_ny)
    state, solve_stats = elliptic.solve_state(domain, curve, grid, rtol=cfg.rtol)
    gram = second_variation.assemble_tilde_gram(
        curve, restriction=cfg.eigen.restriction)
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
    state, solve_stats, op = _strip_operator(cfg, domain, curve)
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
                "method": "none" if lam_stats.note else "dense_eigh",
                "size": op.gram.basis.shape[1],
                "leading": [_num(v, "numeric") for v in
                            second_variation.leading_eigenvalues(op, 3)],
            },
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


def _analyze_segment(cfg):
    report, code = _segment_report(cfg, "analyze")
    report["results"]["lambda1"] = _num(0.0, "analytic")
    report["results"]["mu"] = _num(math.inf, "analytic")
    report["notes"] = ["empty constraint: the nonlocal operator vanishes on a "
                       "segment, so the verdict is the sign of the local form"]
    return report, code


def _run_analyze(cfg):
    if cfg.geometry.kind == "segment":
        return _analyze_segment(cfg)
    return _analyze_strip(cfg)


# ----------------------------------------------------------- phase-diagram

def _phase_point(cfg, a, b):
    domain = cfg.geometry.strip_domain(a, b)
    state, _, op = _strip_operator(cfg, domain,
                                   geometry.flat_curve(b, cfg.grid_nx))
    lam, _ = second_variation.lambda1(op)
    verdict = second_variation.verdict_from_eigenvalue(lam, band=cfg.eigen.band)
    return (a, b, lam, _flat_closed_form(cfg.geometry, a, b), verdict,
            cfg.grid_nx, cfg.grid_ny,
            validation.criticality_residuals(state).sup_residual)


def _run_phase_diagram(cfg, jobs):
    _require_strip(cfg, "phase-diagram")
    geom = cfg.geometry
    if geom.a_values is None or geom.b_values is None:
        raise ConfigInvalid(
            "phase-diagram needs geometry.a_values and geometry.b_values")
    points = [(a, b) for a in geom.a_values for b in geom.b_values]

    def worker(point):
        return _phase_point(cfg, *point)

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
            "flow": asdict(cfg.validate.flow),
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
    return report, report["exit_code"]


# ----------------------------------------------------------------- compare

def _run_compare(cfg):
    _require_strip(cfg, "compare")
    geom = cfg.geometry
    a = geom.a
    b = geom.b
    if a is None or b is None:
        raise ConfigInvalid("compare needs geometry.a and geometry.b")
    n_fine = cfg.grid_nx
    n_coarse = max(16, n_fine // 2)
    if n_coarse == n_fine:
        raise ConfigInvalid("compare needs grid.nx > 16 to have a coarser "
                            "grid for its convergence orders")

    # the probes use the canonical wall pair whatever geometry.boundary says
    domain = GeometrySpec("strip").strip_domain(a, b)
    curve = geometry.flat_curve(b, cfg.grid_nx)
    _, _, op = _strip_operator(cfg, domain, curve)

    x = curve.abscissae
    mode_rows = []
    for n in cfg.eigen.modes:
        lam_an = analytic_oracle.mode_lambda(n, a, b)
        phi = np.sin(n * math.pi * x / b)
        lam_num = op.rayleigh(phi)
        mode_rows.append((n, lam_num, lam_an, abs(lam_num - lam_an) / lam_an))

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
                   "restriction": cfg.eigen.restriction},
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
                str(n): _num(scale * analytic_oracle.mode_lambda(n, a, b),
                             "analytic")
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
                         choices=second_variation.RESTRICTIONS,
                         help="override eigen.restriction")
        cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker threads (phase-diagram only)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.jobs < 1:
            raise ConfigInvalid("--jobs must be >= 1")

        if args.command == "analyze":
            report, code = _run_analyze(cfg)
            _emit(_json_text(report), cfg.out_path)
        elif args.command == "phase-diagram":
            csv_text, code = _run_phase_diagram(cfg, args.jobs)
            _emit(csv_text, cfg.out_path)
        elif args.command == "validate":
            report, code = _run_validate(cfg)
            _emit(_json_text(report), cfg.out_path)
        elif args.command == "compare":
            table, report, code = _run_compare(cfg)
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
