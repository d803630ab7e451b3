"""One benchmark call: a fresh interpreter that runs ms_stability.cli.main.

    python3 perfbench/child.py --spawned-at T --config PATH [--spans PATH] -- ARGV...

T is time.monotonic() in the parent just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers
interpreter start, the import of ms_stability.cli and loading the config.
Without ARGV the process stops after set-up.  With --spans the call runs
traced and its spans are written to PATH.  The last line of stdout is a
JSON object with setup_s, wall_s, exit_code and peak_rss_mb.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ms_stability import cli  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    cli.load_config(args.config)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.argv:
        tracer = None
        if args.spans:
            import spans  # perfbench/, the script's directory, is on sys.path

            tracer = spans.Tracer(os.path.splitext(os.path.relpath(args.spans, ROOT))[0])
            spans.install(tracer)
        start = time.perf_counter()
        with tracer.span("cli.main") if tracer else contextlib.nullcontext():
            out["exit_code"] = cli.main(args.argv)
        out["wall_s"] = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
            with open(args.spans, "w") as handle:
                json.dump(tracer.spans, handle)
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
