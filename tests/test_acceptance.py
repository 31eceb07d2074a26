"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 6, 8 and 9 read the bundles produced by the shipped configuration
files in configs/; criterion 10 re-runs both configurations and compares the
bundles byte for byte.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from hutch.circle import (
    CirclePoint,
    circle_dist,
    frac,
    hausdorff,
    is_subset,
)
from hutch.homeo import PLHomeo
from hutch.ifs import IFS, hutchinson, inverse_system
from hutch.probes import VERDICT_NOT_SENSITIVE, dF_estimate, sensitivity_probe
from hutch.constructions import diagonal_containment_check
from hutch.cli import parse_config, run
from conftest import ALPHA, random_arcset, random_point
from test_circle import GRID, brute_hausdorff

F = Fraction

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} ({name}): PASS")


def _run_config(name: str, out_dir: Path) -> tuple[dict, bytes]:
    raw = json.loads((CONFIG_DIR / name).read_text())
    config = parse_config({**raw, "out": str(out_dir)})
    run(config)
    data = (out_dir / "bundle.json").read_bytes()
    return json.loads(data), data


@pytest.fixture(scope="module")
def theorem1_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_t1")
    return _run_config("acceptance_theorem1.json", out)


@pytest.fixture(scope="module")
def theorem2_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_t2")
    return _run_config("acceptance_theorem2.json", out)


def test_criterion_01_breakpoint_fidelity(theorem2):
    with criterion(1, "breakpoint fidelity"):
        graph_points = {
            1: [(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2))],
            2: [(0, 0), (F(5, 8), F(5, 8)), (F(6, 8), F(7, 8))],
            3: [(0, 0), (F(1, 2), F(1, 2)), (F(5, 8), F(3, 4)), (F(7, 8), F(7, 8))],
        }
        checked = 0
        for idx, points in graph_points.items():
            g = theorem2.generators[idx]
            for x, y in points:
                assert g(CirclePoint(x)) == CirclePoint(y)
                checked += 1
        assert checked == 10


def test_criterion_02_noncommutativity(theorem2):
    with criterion(2, "non-commutativity"):
        f3, f4 = theorem2.generators[2], theorem2.generators[3]
        x = CirclePoint(F(5, 8))
        assert f3(f4(x)) == CirclePoint(F(7, 8))
        assert f4(f3(x)) == CirclePoint(F(3, 4))


def test_criterion_03_diagonal_containment(theorem2):
    with criterion(3, "diagonal containment"):
        inverse = inverse_system(theorem2)
        assert diagonal_containment_check(theorem2).covered
        assert diagonal_containment_check(inverse).covered
        rng = random.Random(2024)
        for _ in range(64):
            a = random_arcset(rng)
            assert is_subset(a, hutchinson(theorem2, a))
            assert is_subset(a, hutchinson(inverse, a))


def test_criterion_04_hausdorff_oracle():
    with criterion(4, "Hausdorff oracle equivalence"):
        rng = random.Random(404)
        for _ in range(200):
            a = random_arcset(rng, max_arcs=3, denom=64)
            b = random_arcset(rng, max_arcs=3, denom=64)
            assert abs(hausdorff(a, b) - brute_hausdorff(a, b)) <= F(1, GRID)


def test_criterion_05_round_trips(theorem2, theorem1):
    with criterion(5, "homeomorphism round trips"):
        rng = random.Random(505)
        gens = list(theorem2.generators) + list(theorem1.forward.generators)
        for g in gens:
            ginv = g.invert()
            for _ in range(256):
                x = random_point(rng)
                assert ginv(g(x)) == x


def test_criterion_06_attractor(theorem2_bundle):
    with criterion(6, "theorem2 attractor convergence"):
        report = theorem2_bundle[0]["reports"][0]["report"]
        radii = [frac(s["gap_radius"]) for s in report["steps"]]
        assert all(b <= a for a, b in zip(radii, radii[1:]))
        assert report["verdict"] == "converged-below-tol"
        assert radii[report["converged_at"]] <= F(1, 256)
        assert report["converged_at"] <= 64
        # regression value frozen after first measurement
        assert report["converged_at"] == 9


def test_criterion_07_isometry_baseline():
    with criterion(7, "isometry baseline"):
        system = IFS((PLHomeo.rotation(ALPHA),), label="rotation")
        rng = random.Random(707)
        for _ in range(100):
            x, y = random_point(rng), random_point(rng)
            assert dF_estimate(system, x, y, 32) == circle_dist(x, y)
        report = sensitivity_probe(
            system,
            [F(1, 64)],
            [CirclePoint(F(k, 4)) for k in range(4)],
            truncation=32,
        )
        assert report.verdict == VERDICT_NOT_SENSITIVE


def test_criterion_08_backward_sensitivity(theorem1_bundle):
    with criterion(8, "theorem1 backward sensitivity"):
        report = theorem1_bundle[0]["reports"][0]["report"]
        entries = report["entries"]
        assert len(entries) == 16
        assert all(e["covering_time"] is not None for e in entries)
        assert all(e["covering_time"] <= 64 for e in entries)
        assert frac(report["lower_bound"]) >= F(1, 4)
        assert report["verdict"] == "sensitive at tested scales"


def test_criterion_09_forward_equicontinuity(theorem1_bundle):
    with criterion(9, "theorem1 forward equicontinuity"):
        report = theorem1_bundle[0]["reports"][1]["report"]
        assert len(report["base_points"]) == 8
        for base in report["base_points"]:
            entries = base["entries"]
            deltas = [frac(e["delta"]) for e in entries]
            moduli = [frac(e["modulus"]) for e in entries]
            assert all(a > b for a, b in zip(deltas, deltas[1:]))
            assert all(a >= b for a, b in zip(moduli, moduli[1:]))
            by_delta = dict(zip(deltas, moduli))
            assert by_delta[F(1, 1024)] <= F(1, 32)


def test_criterion_10_determinism(theorem1_bundle, theorem2_bundle, tmp_path_factory):
    with criterion(10, "deterministic bundles"):
        _, second_t1 = _run_config(
            "acceptance_theorem1.json", tmp_path_factory.mktemp("repeat_t1")
        )
        _, second_t2 = _run_config(
            "acceptance_theorem2.json", tmp_path_factory.mktemp("repeat_t2")
        )
        assert theorem1_bundle[1] == second_t1
        assert theorem2_bundle[1] == second_t2
