#!/usr/bin/env python3
"""Build the finite-stage Denjoy-plus-blowup system and run the full probe
battery: backward covering/sensitivity, forward equicontinuity, and a
forward orbit-density check.

Writes bundle.json, per-probe CSVs and timings.json under results/theorem1/.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hutch.cli import ExperimentConfig, parse_config, run


def config(out: Path) -> ExperimentConfig:
    """The run whose outputs are committed under results/theorem1/, writing
    them under out instead."""
    return parse_config(
        {
            "system": "theorem1",
            "probes": [
                {"probe": "sensitivity", "direction": "backward",
                 "lengths": ["1/64", "1/256"], "centers": 16, "truncation": 64},
                {"probe": "equicontinuity", "direction": "forward",
                 "base_points": 8,
                 "deltas": ["1/16", "1/64", "1/256", "1/1024"],
                 "truncation": 32, "samples_per_delta": 4},
                {"probe": "minimality", "direction": "forward",
                 "start": "1/3", "depth": 10, "epsilon": "1/32"},
            ],
            "out": str(out),
            "seed": 0,
        }
    )


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "results" / "theorem1"
    bundle = run(config(out))
    print(f"wrote {len(bundle.reports)} reports to {out}")
    for entry, elapsed in zip(bundle.reports, bundle.timings):
        print(f"  {entry['probe']:16s} {elapsed:7.2f}s")


if __name__ == "__main__":
    main()
