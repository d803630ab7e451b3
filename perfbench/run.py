"""Benchmark of the ms-stability pipeline through its public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every call is a fresh interpreter
(perfbench/child.py) that imports ms_stability.cli from src/, loads the
generated config and runs cli.main(argv) once: one client in a closed
loop.  --seed is written into the config's eigen.seed, and
MS_STABILITY_SEED is removed from the child's environment.

A run repeats rounds of the workload's calls for --seconds (at least
the workload's min_rounds rounds), checks every output and that all
reports made with one seed are byte-identical, and reports medians.
Set-up is also timed in SETUP_PROBES extra interpreters that stop after
loading the config, half before the calls and half after them.  With
--trace 1 the run ends with one traced round and reports the per-layer
metrics instead of the end-to-end ones; the spans and the per-layer
table go to .perfbench/<workload>-seed<N>-trace1/.

The last line of stdout is the JSON result; the lines before it give the
run environment and every metric by name and unit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_ENV = "MS_STABILITY_SEED"
SETUP_PROBES = 4
RUN_LIMIT_S = 150.0   # start no optional round that would end later than this
KILL_AFTER_S = 170.0  # a call still running then is killed: a run ends within 180 s

LATTICE_A = (0.25, 0.5, 1.0, 2.0)
LATTICE_B = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class Workload:
    """Config for a seed, the CLI calls made on each seed of a round (the
    last is the main call), the output check, the lambda1 error of a
    report, how many seeds a round covers, and the fewest untraced
    rounds in a run, however short --seconds is.  Odd seeds make their
    calls in reverse order, so that each call's samples spread evenly
    over the round."""

    config: Callable
    round_argv: list
    check: Callable
    lambda1_error: Callable
    seeds: int = 1
    min_rounds: int = 2

    def calls(self):
        """(seed, argv) of one round, in the order they run."""
        return [(seed, argv) for seed in range(self.seeds)
                for argv in (self.round_argv if seed % 2 == 0
                             else self.round_argv[::-1])]


def eigen_seed(seed, k):
    """eigen.seed of the k-th seed of a run: --seed itself for k = 0."""
    return seed + k * 1000000000


def _strip(n, eigen):
    return {"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
            "grid": {"nx": n, "ny": n}, "eigen": eigen}


def _phase_check(text, code, header):
    lattice = [(a, b) for a in LATTICE_A for b in LATTICE_B]
    return checks.phase_problems(text, code, header, lattice)


WORKLOADS = {
    # Eigen-bound: lambda1 and mu power iterations are ~97% of the time.
    "analyze-strip-128": Workload(
        config=lambda seed: _strip(128, {"seed": seed, "compute_mu": True}),
        round_argv=[["analyze", "--jobs", "1"]],
        check=lambda text, code, header: checks.analyze_problems(text, code, 1.0, 1.0),
        lambda1_error=lambda text: checks.analyze_lambda1_error(text, 1.0, 1.0),
        # The seed sets the power-iteration start vector, and the iteration
        # count, so the wall time, varies by about 10% between seeds.  A
        # round covers three seeds so that the median averages this out.
        seeds=3,
    ),
    # Assembly- and state-solve-bound: six state solves, one transport solve.
    "validate-flow-256": Workload(
        config=lambda seed: _strip(256, {"seed": seed}),
        round_argv=[["validate", "--jobs", "1"]],
        check=lambda text, code, header: checks.validate_problems(text, code),
        lambda1_error=lambda text: checks.validate_lambda1_error(
            text, 1.0, 1.0, 256, mode=1, amplitude=1.0),
    ),
    # Many small problems; the only workload that uses the --jobs pool.
    # A round is --jobs 1, --jobs 2 on one seed and --jobs 2, --jobs 1 on
    # a second: the seed moves the work by about 5%, and a call takes 8-12
    # s, so two seeds in mirrored order fill a run and give each metric
    # samples from both halves of it.  The two CSVs of a seed must match.
    "phase-lattice-64": Workload(
        config=lambda seed: {
            "geometry": {"kind": "strip", "a_values": list(LATTICE_A),
                         "b_values": list(LATTICE_B)},
            "grid": {"nx": 64, "ny": 64}, "eigen": {"seed": seed}},
        round_argv=[["phase-diagram", "--jobs", "1"],
                    ["phase-diagram", "--jobs", "2"]],
        check=_phase_check,
        lambda1_error=checks.phase_lambda1_error,
        seeds=2,
        min_rounds=1,
    ),
}


# ---------------------------------------------------------------- helpers

def environment():
    """What the numbers depend on, as found (nothing here is set)."""
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else ""
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "git_commit": commit or "unknown (not a git checkout)",
    }


class Runner:
    """Starts the child interpreters of one benchmark run."""

    def __init__(self, out_dir, config_paths):
        self.out_dir = out_dir
        self.config_paths = config_paths
        self.env = {k: v for k, v in os.environ.items() if k != SEED_ENV}
        self.started = time.monotonic()

    def spawn(self, argv=(), label=None, seed=0, traced=False):
        """Run one child on the config of the run's seed-th seed; returns its
        result dict plus report text, or None if the child failed."""
        config = self.config_paths[seed]
        out = os.path.join(self.out_dir, "%s.out" % label) if label else None
        span_path = os.path.join(self.out_dir, "spans-%s.json" % label) if traced else None
        full = list(argv) + ["--config", config, "--out", out] if argv else []
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", config]
        if span_path:
            cmd += ["--spans", span_path]
        spawned = time.monotonic()
        cmd += ["--spawned-at", repr(spawned), "--"] + full
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=max(1.0, self.started + KILL_AFTER_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("call %s timed out" % label)
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print("call %s failed (exit %d): %s" % (label, proc.returncode,
                                                    proc.stderr.strip()[-2000:]))
            return None
        if out:
            # cli.main writes no report when it fails; the checks flag that.
            result["text"] = ""
            if os.path.exists(out):
                with open(out) as handle:
                    result["text"] = handle.read()
        if span_path:
            with open(span_path) as handle:
                result["spans"] = json.load(handle)
        result["argv"] = list(argv)
        result["seed"] = seed
        return result


def run_rounds(runner, work, seconds, trace):
    """The measured calls of one run, in order; failed children are None."""
    min_rounds = 1 if trace else work.min_rounds
    calls = []
    round_s = []
    start = time.monotonic()
    while len(round_s) < min_rounds or (
            time.monotonic() - start + statistics.median(round_s) <= seconds
            and time.monotonic() - runner.started + statistics.median(round_s)
            <= RUN_LIMIT_S):
        t0 = time.monotonic()
        for seed, argv in work.calls():
            calls.append(runner.spawn(argv, label="call%d" % (len(calls) + 1),
                                      seed=seed))
        round_s.append(time.monotonic() - t0)
        if any(c is None for c in calls):
            break
    if trace and all(c is not None for c in calls):
        for argv in work.round_argv:
            calls.append(runner.spawn(argv, label="call%d" % (len(calls) + 1),
                                      traced=True))
    return calls


def count_failures(work, calls, header):
    failed = 0
    reference = {}
    for call in calls:
        if call is None:
            failed += 1
            continue
        try:
            problems = work.check(call["text"], call["exit_code"], header)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = ["malformed report: %r" % exc]
        if call["seed"] not in reference:
            reference[call["seed"]] = call["text"]
        else:
            problems += checks.repeat_problems(reference[call["seed"]], call["text"])
        for problem in problems:
            print("check failed (%s %s): %s" % (call["argv"][0], " ".join(call["argv"][1:]),
                                                problem))
        failed += bool(problems)
    return failed


def end_to_end(work, calls, setups):
    ok = [c for c in calls if c is not None and "spans" not in c]
    main = [c for c in ok if c["argv"] == work.round_argv[-1]]
    jobs1 = [c for c in ok if c["argv"][-2:] == ["--jobs", "1"]]
    return {
        "setup_s": statistics.median(setups + [c["setup_s"] for c in calls if c]),
        "wall_s": statistics.median(c["wall_s"] for c in main),
        "wall_jobs1_s": statistics.median(c["wall_s"] for c in jobs1),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in main),
        "lambda1_abs_err": work.lambda1_error(main[0]["text"]),
    }


def per_layer(calls, e2e):
    traced = [c for c in calls if c is not None and "spans" in c]
    main, jobs1 = traced[-1], (traced[0] if len(traced) > 1 else None)
    m = spans.layer_metrics(main["spans"], jobs1["spans"] if jobs1 else None)
    m["cli.jobs2_speedup"] = e2e["wall_jobs1_s"] / e2e["wall_s"] if jobs1 else 0.0
    untraced = [c["wall_s"] for c in calls if c is not None and "spans" not in c
                and c["seed"] == main["seed"] and c["argv"] == main["argv"]]
    m["trace.overhead_s"] = main["wall_s"] - statistics.median(untraced)
    m["validation.fd_mismatch"] = (checks.validate_fd_mismatch(main["text"])
                                   if main["argv"][0] == "validate" else 0.0)
    return m, main


def write_table(path, env, workload, seed, e2e, layer, units, main):
    err = "%.6g" % e2e["lambda1_abs_err"]
    lines = ["# %s, seed %d, traced call: %s" % (workload, seed, " ".join(main["argv"])),
             "",
             "environment: " + ", ".join("%s=%s" % kv for kv in env.items()),
             "",
             "tracing overhead: %.6f s (traced wall %.6f s minus the untraced median "
             "of the same call; %d spans)" % (layer["trace.overhead_s"], main["wall_s"],
                                              len(main["spans"])),
             "",
             "| metric | value | unit | lambda1_abs_err |",
             "|---|---|---|---|"]
    for name, value in list(e2e.items()) + list(layer.items()):
        lines.append("| %s | %.6g | %s | %s |" % (name, value, units[name], err))
    lines += ["", "Spans of the traced call (self = duration minus child spans):", "",
              "| span | calls | total s | self s | lambda1_abs_err |",
              "|---|---|---|---|---|"]
    for name, (count, total, own) in spans.span_table(main["spans"]).items():
        lines.append("| %s | %d | %.6f | %.6f | %s |" % (name, count, total, own, err))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def metrics_block(spec, values):
    """{name: {value, unit}} in BENCHMARK.json order; every name required."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError("metrics not computed: %s" % ", ".join(missing))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0 (numpy seeds are non-negative)")
    if not os.path.isfile(os.path.join(ROOT, "src", "ms_stability", "cli.py")):
        print("error: src/ms_stability/cli.py not found under %s" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ms_stability.cli import CSV_HEADER

    work = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".perfbench", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    config_paths = []
    for k in range(work.seeds):
        config_paths.append(os.path.join(out_dir, "config-%d.json" % k))
        with open(config_paths[-1], "w") as handle:
            json.dump(work.config(eigen_seed(args.seed, k)), handle, indent=2)

    env = environment()
    for key, value in env.items():
        print("env %s = %s" % (key, value))

    runner = Runner(out_dir, config_paths)
    # Half the set-up probes run before the calls and half after, so that
    # their median samples the machine over the whole run.
    probes = [runner.spawn() for _ in range(SETUP_PROBES // 2)]
    if any(p is None for p in probes):
        print("error: the package does not import or the config does not load",
              file=sys.stderr)
        return 1
    calls = run_rounds(runner, work, args.seconds, args.trace)
    probes += [runner.spawn() for _ in range(SETUP_PROBES - len(probes))]
    if any(p is None for p in probes):
        print("error: a set-up probe failed", file=sys.stderr)
        return 1
    failed = count_failures(work, calls, CSV_HEADER)
    try:
        e2e = end_to_end(work, calls, [p["setup_s"] for p in probes])
        if args.trace:
            layer, main_call = per_layer(calls, e2e)
    except (ValueError, IndexError, KeyError) as exc:
        print("error: too few calls succeeded to compute the metrics: %r" % exc,
              file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("calls %d, failed %d, fail_share %.6g" % (len(calls), failed, failed / len(calls)))
    for name, value in e2e.items():
        print("%s = %.6g %s" % (name, value, units[name]))
    if args.trace:
        for name, value in layer.items():
            print("%s = %.6g %s" % (name, value, units[name]))
        table = os.path.join(out_dir, "layers.md")
        write_table(table, env, args.workload, args.seed, e2e, layer, units, main_call)
        print("per-layer table: %s" % os.path.relpath(table, ROOT))
        metrics = metrics_block(spec["per_layer"], layer)
    else:
        metrics = metrics_block(spec["end_to_end"], e2e)
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    per_call = [None if c is None else {k: c[k] for k in
                                        ("argv", "seed", "exit_code", "setup_s", "wall_s",
                                         "peak_rss_mb")}
                for c in calls]
    with open(os.path.join(out_dir, "result.json"), "w") as handle:
        json.dump(dict(result, environment=env, calls=per_call,
                       setup_probes_s=[p["setup_s"] for p in probes]), handle, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
