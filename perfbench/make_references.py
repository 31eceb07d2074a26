"""Regenerate references.json: the exact t2-exact values for every start
point of the grid.  Exact mode is the oracle, so any correct change to the
program keeps these values; regenerate only when the grid changes.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> None:
    sys.path.insert(0, workloads.source_dir())
    from hutch.cli import parse_config, run

    references = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as out:
        for start in workloads.T2_STARTS:
            obj = workloads.config("t2-exact", 0, out)
            for probe in obj["probes"]:
                probe["start"] = start
            bundle = run(parse_config(obj))
            references[start] = workloads.t2_reference(
                [e["report"] for e in bundle.reports])
            print(start, references[start]["arc_count"][-1], flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
