#!/usr/bin/env python3
"""Run the explicit four-generator system: attractor convergence from a
singleton, orbit density, and the backward attractor for comparison.

Writes bundle.json, per-probe CSVs and timings.json under results/theorem2/.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hutch.cli import ExperimentConfig, parse_config, run


def config(out: Path) -> ExperimentConfig:
    """The run whose outputs are committed under results/theorem2/, writing
    them under out instead."""
    return parse_config(
        {
            "system": "theorem2",
            "probes": [
                {"probe": "attractor", "direction": "forward",
                 "start": "1/3", "budget": 64, "tol": "1/256"},
                {"probe": "attractor", "direction": "backward",
                 "start": "1/3", "budget": 64, "tol": "1/256"},
                {"probe": "minimality", "direction": "forward",
                 "start": "1/3", "depth": 12, "epsilon": "1/64"},
                {"probe": "sensitivity", "direction": "backward",
                 "lengths": ["1/64"], "centers": 8, "truncation": 32},
            ],
            "precision": {"denominator_limit": 2**16, "coarsen": "1/2048"},
            "out": str(out),
            "seed": 0,
        }
    )


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "results" / "theorem2"
    bundle = run(config(out))
    print(f"wrote {len(bundle.reports)} reports to {out}")
    for entry, elapsed in zip(bundle.reports, bundle.timings):
        print(f"  {entry['probe']:16s} {elapsed:7.2f}s")


if __name__ == "__main__":
    main()
