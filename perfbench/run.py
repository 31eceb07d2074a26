"""Probe-run benchmark for hutch.

    python3 perfbench/run.py --workload t1-sensitivity --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  Each repetition is a fresh process that
drives ``hutch.cli.parse_config`` -> ``hutch.cli.run`` on the config the
seed selects (see workloads.py); the loop is closed, one repetition at a
time, until the next one would end after ``--seconds``.  Every bundle is
checked for correctness and all bundles of a run must be byte identical.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions, with times in seconds at the reference speed of
gauge.py, which takes the host's changing speed out of them.  Set-up takes
~0.1 s, too short for a few samples to settle, so each repetition is
preceded by SETUPS_PER_REPETITION fresh processes that only set up;
``setup_s`` is the median over all of them and the repetitions.  ``--trace 1`` runs traced repetitions only and reports
the per-layer metrics as medians over them; counts must agree exactly.

Machine state goes to stdout before the result and, with every
repetition's numbers, to .perfbench_out/<workload>-seed<n>-trace<t>/result.json.
The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = workloads.ROOT
CHILD = os.path.join(HERE, "child.py")
# A run must end within 180 s; repetitions are cut off before that.
RUN_LIMIT_S = 170
CALIBRATION_ITERATIONS = 1_000_000
SETUPS_PER_REPETITION = 4


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, a gauge of machine speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_state(src: str) -> dict:
    files = sorted(glob.glob(os.path.join(src, "hutch", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_hutch_lines": lines,
        "hutch_threads": os.environ.get("HUTCH_THREADS", "1"),
    }


def repetition(workload: str, seed: int, mode: str, out: str, references,
               timeout: float) -> dict:
    """Run one fresh process in mode "setup", "run" or "trace"; return its
    timings, digest and problems."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--out", out, "--trace", str(int(mode == "trace"))]
    if mode == "setup":
        cmd.append("--setup-only")
    else:
        os.makedirs(out)
    rep = {"mode": mode, "problems": []}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["problems"].append(f"timed out after {timeout:.0f} s")
        return rep
    if proc.returncode != 0:
        rep["problems"].append(
            f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return rep
    rep.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    if mode == "setup":
        return rep
    with open(os.path.join(out, "bundle.json"), "rb") as fh:
        data = fh.read()
    rep["digest"] = hashlib.sha256(data).hexdigest()
    rep["problems"] = workloads.check(workload, seed, json.loads(data), references)
    return rep


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main() -> int:
    launched = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    src = workloads.source_dir()
    references = workloads.load_references()
    out_root = os.path.join(
        ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)

    context = machine_state(src)
    context["load_before"] = os.getloadavg()
    context["calibration_before_s"] = calibrate()

    # One unit is a traced repetition, or set-up samples and a repetition.
    unit = ["trace"] if args.trace else ["setup"] * SETUPS_PER_REPETITION + ["run"]
    reps: list[dict] = []
    units = 0
    started = time.perf_counter()
    longest = 0.0
    while units < 2 or time.perf_counter() - started + longest <= args.seconds:
        u0 = time.perf_counter()
        for mode in unit:
            out = os.path.join(out_root, f"rep{len(reps):03d}")
            timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - launched))
            reps.append(repetition(args.workload, args.seed, mode, out,
                                   references, timeout))
        units += 1
        longest = max(longest, time.perf_counter() - u0)

    context["calibration_after_s"] = calibrate()
    context["load_after"] = os.getloadavg()

    digests = [r["digest"] for r in reps if "digest" in r]
    for r in reps:
        if "digest" in r and r["digest"] != digests[0]:
            r["problems"].append("bundle.json differs from the first repetition")
    timed = [r for r in reps if "wall_s" in r]

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            values = [r["layers"][name] for r in timed]
            if not values:
                continue
            if m["unit"] == "count":
                if len(set(values)) > 1:
                    for r in timed:
                        r["problems"].append(f"count {name} differs between traced runs")
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": m["unit"]}
    elif timed:
        setups = [r for r in reps if "setup_s" in r]
        for m in spec["end_to_end"]:
            name = m["name"]
            value = median_of(setups if name == "setup_s" else timed, name)
            metrics[name] = {"value": value, "unit": m["unit"]}
        # The wall clock as read, and the machine's speed, beside the
        # scaled metrics.
        context["raw_wall_s"] = median_of(timed, "raw_wall_s")
        context["raw_setup_s"] = median_of(setups, "raw_setup_s")
        context["probe_s"] = median_of(timed, "probe_s")

    failed = sum(1 for r in reps if r["problems"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "selection": workloads.selection(args.workload, args.seed),
        "context": context,
        "failed_frac": failed / len(reps),
        "repetitions": [
            {k: v for k, v in r.items() if k != "layers"} for r in reps
        ],
    }
    with open(os.path.join(out_root, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    for r in reps:
        for problem in r["problems"]:
            print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print("perfbench context " + json.dumps(context))
    print(f"perfbench failed_frac {failed}/{len(reps)} = {failed / len(reps):.3f}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if len(metrics) != len(wanted):
        print("perfbench: no repetition produced timings", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
