"""One repetition of a workload, in a fresh process.

Drives the user path ``hutch.cli.parse_config`` -> ``hutch.cli.run`` from
the checkout's ``src/`` and prints one JSON line with the timings.  Untraced
timings are in seconds at the reference speed of ``gauge.py``; the raw wall
clock readings are printed next to them as ``raw_wall_s`` and
``raw_setup_s``.  With
``--trace 1`` the per-layer wrappers are installed first and the spans are
written to ``spans.jsonl`` in the output directory when the run ends.  With
``--setup-only`` it stops after the set-up (import, ``parse_config`` and
``resolve_system``) and reports only ``setup_s``.

    python3 perfbench/child.py --workload t2-exact --seed 1 --out DIR --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module, not the program)
from gauge import Gauge  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = workloads.source_dir()
    sys.path.insert(0, src)
    # Traced repetitions report raw times: the tracer's spans must not
    # contain the gauge's probes.
    gauge = None if args.trace else Gauge()
    t0 = gauge.start() if gauge else time.perf_counter()
    import hutch.cli as cli

    t_imported = time.perf_counter()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    obj = workloads.config(args.workload, args.seed, args.out)

    build = []
    resolve = cli.resolve_system

    def timed_resolve(config):
        b0 = time.perf_counter()
        system = resolve(config)
        build.append((b0, time.perf_counter()))
        return system

    cli.resolve_system = timed_resolve
    t_parse = time.perf_counter()
    config = cli.parse_config(obj)
    t_parsed = time.perf_counter()
    if not args.setup_only:
        cli.run(config)
    else:
        cli.resolve_system(config)
    t_end = gauge.stop() if gauge else time.perf_counter()

    # Set-up is import, parse_config and the build inside resolve_system.
    setup = [(t0, t_imported), (t_parse, t_parsed), build[0]]
    wall = [(t0, t_imported), (t_parse, t_end)]
    result = {
        "raw_setup_s": sum(b - a for a, b in setup),
        "raw_wall_s": sum(b - a for a, b in wall),
    }
    if gauge:
        result["setup_s"] = sum(gauge.reference_s(a, b) for a, b in setup)
        result["wall_s"] = sum(gauge.reference_s(a, b) for a, b in wall)
        result["probe_s"] = gauge.probe_s()
    else:
        result["setup_s"] = result["raw_setup_s"]
        result["wall_s"] = result["raw_wall_s"]
    if args.setup_only:
        del result["wall_s"], result["raw_wall_s"]
        print(json.dumps(result))
        return 0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
