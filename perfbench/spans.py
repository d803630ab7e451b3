"""In-memory spans around the library's layer boundaries.

The benchmark records spans from its own files: ``install`` replaces
public callables of each ``ms_stability`` module with wrappers that open
a span around the original.  The library source is untouched.  Every
caller inside the package reaches these callables through the module
attribute (``elliptic.solve_state(...)``) or the class attribute
(``self.upper.solve(...)``), so nested calls become child spans.

Spans stay in memory until the traced call ends; ``layer_metrics`` then
reduces them to the per-layer numbers the benchmark reports.
"""

import contextlib
import functools
import statistics
import threading
import time


class Tracer:
    """Span recorder: name, start, end, parent span and run id per span.

    Spans opened by a thread with no open span of its own (the
    ``--jobs`` pool workers) take the first span ever opened, the
    ``cli.main`` root, as their parent.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root = None
        self._restore = []

    @contextlib.contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
            if self._root is None:
                self._root = span_id
        record = {
            "run": self.run_id,
            "id": span_id,
            "parent": stack[-1]["id"] if stack else
            (None if span_id == self._root else self._root),
            "name": name,
            "thread": threading.get_ident(),
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr, name, describe=None):
        """Replace owner.attr by a spanning wrapper; describe(args, result)
        returns extra fields (work counts) stored on the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if describe is not None:
                    record.update(describe(args, result))
                return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _cg_work(args, result):
    component, (_, stats) = args[0], result
    return {"cg_iters": stats.iterations, "n": component.n_unknown,
            "nnz": int(component.a_uu.nnz),
            "index_bytes": component.a_uu.indices.itemsize}


def _solve_work(args, result):
    return {"cg_iters": result[1].iterations}


def _eigen_work(args, result):
    return {"iters": result[1].iterations}


def install(tracer):
    """Wrap the layer boundaries of ms_stability (imported by the caller)."""
    from ms_stability import cli, elliptic, second_variation, validation

    targets = [
        (elliptic.StripSystem, "__init__", "elliptic.StripSystem", None),
        (elliptic._Component, "solve", "elliptic._Component.solve", _cg_work),
        (elliptic, "solve_state", "elliptic.solve_state", _solve_work),
        (elliptic, "solve_jump_source", "elliptic.solve_jump_source", _solve_work),
        (elliptic, "dirichlet_energy", "elliptic.dirichlet_energy", None),
        (second_variation, "assemble_tilde_gram",
         "second_variation.assemble_tilde_gram", None),
        (second_variation, "lambda1", "second_variation.lambda1", _eigen_work),
        (second_variation, "mu", "second_variation.mu", _eigen_work),
        (second_variation.TOperator, "apply", "second_variation.TOperator.apply", None),
        (second_variation, "second_variation_value",
         "second_variation.second_variation_value", None),
        (validation, "energy_along_flow", "validation.energy_along_flow", None),
        (validation, "criticality_residuals", "validation.criticality_residuals", None),
        # cli imports load_config by name, so cli's own attribute is the
        # one main() calls.
        (cli, "load_config", "config.load_config", None),
        # Private, but it is the one call per lattice point, which is what
        # cli.point_s measures.
        (cli, "_phase_point", "cli._phase_point", None),
    ]
    for owner, attr, name, describe in targets:
        tracer.wrap(owner, attr, name, describe)


# ------------------------------------------------------------- reduction

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def span_table(spans):
    """name -> (calls, total seconds, self seconds), sorted by self time."""
    own = self_times(spans)
    table = {}
    for s in spans:
        calls, total, self_s = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (calls + 1, total + s["end"] - s["start"],
                            self_s + own[s["id"]])
    return dict(sorted(table.items(), key=lambda kv: -kv[1][2]))


# CG traffic per iteration of scipy's cg with the Jacobi preconditioner,
# counting each array as streamed once (no cache reuse): 25 passes over
# length-n float64 vectors (norm, precondition, two dots, the p update,
# the matvec input and output, and the x and r updates with their
# temporaries), plus the CSR matrix: values, column indices, row pointers.
_CG_VECTOR_PASSES = 25


def cg_bytes(span):
    n, nnz, ib = span["n"], span["nnz"], span["index_bytes"]
    return _CG_VECTOR_PASSES * 8 * n + (8 + ib) * nnz + ib * (n + 1)


def _cg_spans(spans):
    """CG calls that iterated (a zero right-hand side returns at once)."""
    return [s for s in spans
            if s["name"] == "elliptic._Component.solve" and s["cg_iters"] > 0]


def _busy(spans):
    """Summed durations: busy time over all threads."""
    return sum(s["end"] - s["start"] for s in spans)


def layer_metrics(spans, jobs1_spans=None):
    """Per-layer numbers of one traced call (see perfbench/README.md).

    jobs1_spans, for the lattice workload, are the spans of the traced
    --jobs 1 call that the CG inflation is measured against.
    """
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return _busy(named(name))

    def self_total(name):
        return sum(own[s["id"]] for s in named(name))

    def count(name, key=None):
        found = named(name)
        return sum(s[key] for s in found) if key else len(found)

    cg = _cg_spans(spans)
    cg_iters = sum(s["cg_iters"] for s in cg)
    cg_time = _busy(cg)
    first_cg = min(cg, key=lambda s: s["start"]) if cg else None
    points = [s["end"] - s["start"] for s in named("cli._phase_point")]

    m = {
        "elliptic.transport_solve_s": total("elliptic.solve_jump_source"),
        "elliptic.transport_solve_calls": count("elliptic.solve_jump_source"),
        "elliptic.transport_cg_iters": count("elliptic.solve_jump_source", "cg_iters"),
        "second_variation.lambda1_s": total("second_variation.lambda1"),
        "second_variation.lambda1_self_s": self_total("second_variation.lambda1"),
        "second_variation.lambda1_iters": count("second_variation.lambda1", "iters"),
        "second_variation.mu_s": total("second_variation.mu"),
        "second_variation.mu_self_s": self_total("second_variation.mu"),
        "second_variation.mu_iters": count("second_variation.mu", "iters"),
        "second_variation.apply_calls": count("second_variation.TOperator.apply"),
        "elliptic.assemble_s": total("elliptic.StripSystem"),
        "elliptic.assemble_calls": count("elliptic.StripSystem"),
        "elliptic.state_solve_s": total("elliptic.solve_state"),
        "elliptic.state_solve_calls": count("elliptic.solve_state"),
        "elliptic.state_cg_iters": count("elliptic.solve_state", "cg_iters"),
        "elliptic.energy_s": total("elliptic.dirichlet_energy"),
        "validation.flow_s": total("validation.energy_along_flow"),
        "validation.criticality_s": total("validation.criticality_residuals"),
        "second_variation.sv_value_s": total("second_variation.second_variation_value"),
        "second_variation.gram_s": total("second_variation.assemble_tilde_gram"),
        "elliptic.cg_us_per_iter": 1e6 * cg_time / cg_iters if cg_iters else 0.0,
        "elliptic.cg_bytes_per_iter":
            sum(cg_bytes(s) * s["cg_iters"] for s in cg) / cg_iters if cg_iters else 0.0,
        "elliptic.cg_first_call_s":
            first_cg["end"] - first_cg["start"] if first_cg else 0.0,
        "cli.point_s_median": statistics.median(points) if points else 0.0,
        "cli.point_s_p90":
            statistics.quantiles(points, n=10, method="inclusive")[8] if points else 0.0,
        "config.load_s": total("config.load_config"),
    }
    base = _busy(_cg_spans(jobs1_spans)) if jobs1_spans else 0.0
    m["cli.jobs2_cg_inflation"] = cg_time / base if base else 0.0
    for layer in ("elliptic", "second_variation", "validation", "config", "cli"):
        m[layer + ".self_s"] = sum(own[s["id"]] for s in spans
                                   if s["name"].split(".")[0] == layer)
    return m
