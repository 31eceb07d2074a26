"""The tracer and the speed gauge are transparent: a traced or gauged run
writes the same bundle as a plain one, and uninstalling the tracer puts
every original back.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import workloads  # noqa: E402
from gauge import REFERENCE_S, Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, workloads.source_dir())

import hutch.cli as cli  # noqa: E402
import hutch.ifs as ifs  # noqa: E402
import hutch.probes as probes  # noqa: E402
from hutch.homeo import PLHomeo  # noqa: E402

SMALL = {
    "theorem1": [
        {"probe": "sensitivity", "direction": "backward",
         "lengths": ["1/64", "1/256"], "centers": ["1/16"], "truncation": 4},
        {"probe": "equicontinuity", "direction": "forward", "base_points": ["3/8"],
         "deltas": ["1/16", "1/1024"], "truncation": 4, "samples_per_delta": 2},
    ],
    "theorem2": [
        {"probe": "attractor", "direction": "forward", "start": "1/3",
         "budget": 64, "tol": "1/64"},
        {"probe": "minimality", "direction": "forward", "start": "1/3",
         "depth": 6, "epsilon": "1/64"},
    ],
}


def _bundle(system: str, out) -> bytes:
    cli.run(cli.parse_config({"system": system, "probes": SMALL[system],
                              "out": str(out)}))
    return (out / "bundle.json").read_bytes()


@pytest.mark.parametrize("system", sorted(SMALL))
def test_traced_bundle_equals_untraced(system, tmp_path):
    plain = _bundle(system, tmp_path / "plain")
    tracer = Tracer().install()
    try:
        traced = _bundle(system, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = tracer.metrics()
    assert layers["ifs.hutchinson_step.calls"] > 0
    assert layers["homeo.image_segment.calls"] >= layers["ifs.hutchinson_step.segments"]


def test_uninstall_restores_originals():
    names = [(ifs, "hutchinson_step"), (probes, "hutchinson_step"),
             (probes, "hausdorff"), (cli, "run"), (PLHomeo, "image_segment"),
             (PLHomeo, "__call__")]
    before = [owner.__dict__[name] for owner, name in names]
    tracer = Tracer().install()
    assert all(owner.__dict__[name] is not b for (owner, name), b in zip(names, before))
    tracer.uninstall()
    assert all(owner.__dict__[name] is b for (owner, name), b in zip(names, before))


def test_gauged_bundle_equals_plain(tmp_path):
    plain = _bundle("theorem2", tmp_path / "plain")
    gauge = Gauge()
    a = gauge.start()
    try:
        gauged = _bundle("theorem2", tmp_path / "gauged")
    finally:
        b = gauge.stop()
    assert gauged == plain
    assert gauge.count > 2
    assert 0 < gauge.reference_s(a, b)


def test_gauge_scales_each_stretch_by_its_probes():
    gauge = Gauge()
    # Probes of 1x and 3x the reference time around a 1-s stretch, then 3x
    # and 3x around another: the stretches count 0.5 s and 1/3 s.
    gauge.record(0.0, REFERENCE_S)
    gauge.record(1.0 + REFERENCE_S, 1.0 + 4 * REFERENCE_S)
    gauge.record(2.0 + 4 * REFERENCE_S, 2.0 + 7 * REFERENCE_S)
    assert gauge.reference_s(0.0, 3.0) == pytest.approx(0.5 + 1 / 3)
    # A reading inside a stretch cuts it; probe time is never counted.
    assert gauge.reference_s(0.5 + REFERENCE_S, 1.0 + 2 * REFERENCE_S) == pytest.approx(0.25)
