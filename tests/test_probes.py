import random
from fractions import Fraction

import pytest

from hutch.circle import Arc, CirclePoint, circle_dist, full_circle
from hutch.homeo import PLHomeo
from hutch.ifs import IFS, PROBE_POLICY
from hutch.probes import (
    VERDICT_NOT_SENSITIVE,
    VERDICT_SENSITIVE,
    covering_time,
    dF_estimate,
    equicontinuity_probe,
    sensitivity_probe,
)
from conftest import ALPHA, random_point

F = Fraction

IDENTITY = IFS((PLHomeo.identity(),), label="identity")
ROTATION = IFS((PLHomeo.rotation(ALPHA),), label="rotation")


# -- dF_estimate -----------------------------------------------------------------


def test_df_zero_for_equal_points(theorem2):
    x = CirclePoint(F(2, 7))
    assert dF_estimate(theorem2, x, x, 8) == 0


def test_df_identity_system_is_circle_dist():
    rng = random.Random(3)
    for _ in range(20):
        x, y = random_point(rng), random_point(rng)
        assert dF_estimate(IDENTITY, x, y, 16) == circle_dist(x, y)


def test_df_isometries_exact():
    rng = random.Random(5)
    for _ in range(20):
        x, y = random_point(rng), random_point(rng)
        assert dF_estimate(ROTATION, x, y, 32) == circle_dist(x, y)


def test_df_dominates_circle_dist(theorem2):
    rng = random.Random(7)
    for _ in range(10):
        x, y = random_point(rng), random_point(rng)
        assert dF_estimate(theorem2, x, y, 4) >= circle_dist(x, y)


def test_df_symmetric_and_triangle(theorem2):
    rng = random.Random(11)
    for _ in range(6):
        x, y, z = (random_point(rng) for _ in range(3))
        dxy = dF_estimate(theorem2, x, y, 3)
        dyx = dF_estimate(theorem2, y, x, 3)
        assert dxy == dyx
        assert dxy <= dF_estimate(theorem2, x, z, 3) + dF_estimate(theorem2, z, y, 3)


def test_df_nondecreasing_in_truncation(theorem2):
    rng = random.Random(13)
    for _ in range(6):
        x, y = random_point(rng), random_point(rng)
        values = [dF_estimate(theorem2, x, y, n) for n in (0, 2, 4, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_df_rejects_negative_truncation(theorem2):
    with pytest.raises(ValueError):
        dF_estimate(theorem2, CirclePoint(0), CirclePoint(F(1, 2)), -1)


def test_df_theorem2_frozen_value(theorem2):
    # regression: the sup for this pair is attained early and equals 1/128,
    # 8 times the n = 0 term
    x, y = CirclePoint(0), CirclePoint(F(1, 1024))
    value = dF_estimate(theorem2, x, y, 8)
    assert value == F(1, 128)
    assert value >= circle_dist(x, y) == F(1, 1024)
    assert dF_estimate(theorem2, x, y, 32, PROBE_POLICY) == F(1, 128)


# -- equicontinuity_probe -----------------------------------------------------------


def test_modulus_of_identity_is_delta():
    deltas = [F(1, 4), F(1, 16), F(1, 64)]
    report = equicontinuity_probe(IDENTITY, CirclePoint(F(1, 3)), deltas, 8)
    for delta, modulus in report.entries:
        assert modulus == delta


def test_modulus_of_rotation_is_delta():
    deltas = [F(1, 8), F(1, 32)]
    report = equicontinuity_probe(ROTATION, CirclePoint(0), deltas, 16)
    for delta, modulus in report.entries:
        assert modulus == delta


def test_modulus_monotone_in_delta(theorem2):
    deltas = [F(1, 4), F(1, 16), F(1, 64), F(1, 256)]
    report = equicontinuity_probe(theorem2, CirclePoint(F(1, 7)), deltas, 6)
    values = [m for _, m in report.entries]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0 <= m <= F(1, 2) for m in values)


def test_modulus_grid_validation(theorem2):
    with pytest.raises(ValueError, match="decreasing"):
        equicontinuity_probe(theorem2, CirclePoint(0), [F(1, 8), F(1, 4)], 4)
    with pytest.raises(ValueError, match="positive"):
        equicontinuity_probe(theorem2, CirclePoint(0), [F(0)], 4)
    with pytest.raises(ValueError, match="samples"):
        equicontinuity_probe(theorem2, CirclePoint(0), [F(1, 8)], 4, samples_per_delta=1)


# -- covering_time -------------------------------------------------------------------


def test_covering_full_circle_is_zero(theorem2):
    assert covering_time(theorem2, Arc(CirclePoint(0), F(1)), 4) == 0


def test_covering_rotation_never():
    assert covering_time(ROTATION, Arc(CirclePoint(0), F(1, 64)), 32) is None


def test_covering_requires_positive_length(theorem2):
    with pytest.raises(ValueError):
        covering_time(theorem2, Arc(CirclePoint(0), F(0)), 4)


def test_covering_backward_theorem1(theorem1):
    n = covering_time(
        theorem1.backward, Arc(CirclePoint(F(1, 3)), F(1, 64)), 64, PROBE_POLICY
    )
    assert n is not None and n <= 64


def test_covering_persists_once_reached(theorem2):
    # F(S^1) = S^1 for systems of homeomorphisms, so coverage never degrades
    from hutch.circle import normalize
    from hutch.ifs import hutchinson

    u = Arc(CirclePoint(F(1, 3)), F(1, 16))
    n = covering_time(theorem2, u, 64)
    assert n == 5
    traj_set = normalize([u])
    for _ in range(n):
        traj_set = hutchinson(theorem2, traj_set)
    assert traj_set.is_full
    assert hutchinson(theorem2, traj_set).is_full


def test_backward_modulus_exceeds_isometry_baseline(theorem1):
    # pair-based d_F on the backward system is macroscopically larger than
    # the input radius (non-isometric expansion), while the sensitivity
    # evidence proper comes from the covering certificate
    report = equicontinuity_probe(
        theorem1.backward,
        CirclePoint(F(1, 3)),
        [F(1, 64), F(1, 1024)],
        32,
        policy=PROBE_POLICY,
    )
    assert dict(report.entries)[F(1, 1024)] > 4 * F(1, 1024)


# -- sensitivity_probe ----------------------------------------------------------------


def test_identity_not_sensitive():
    report = sensitivity_probe(
        IDENTITY, [F(1, 16)], [CirclePoint(0), CirclePoint(F(1, 2))], 16
    )
    assert report.verdict == VERDICT_NOT_SENSITIVE
    # endpoint pair of each arc realizes exactly the arc length
    assert report.lower_bound == F(1, 16)
    assert all(e.covering_time is None for e in report.entries)


def test_rotation_not_sensitive():
    report = sensitivity_probe(ROTATION, [F(1, 16)], [CirclePoint(0)], 16)
    assert report.verdict == VERDICT_NOT_SENSITIVE


def test_backward_theorem1_sensitive(theorem1):
    report = sensitivity_probe(
        theorem1.backward,
        [F(1, 64)],
        [CirclePoint(0), CirclePoint(F(1, 2))],
        64,
        PROBE_POLICY,
    )
    assert report.verdict == VERDICT_SENSITIVE
    assert report.lower_bound >= F(1, 4)
    assert all(e.covering_time is not None for e in report.entries)
    assert all(e.covering_bound is not None for e in report.entries)


def test_sensitivity_validation(theorem2):
    with pytest.raises(ValueError):
        sensitivity_probe(theorem2, [], [CirclePoint(0)], 8)
    with pytest.raises(ValueError):
        sensitivity_probe(theorem2, [F(1, 8)], [], 8)
