import random
from fractions import Fraction

import pytest

from hutch.circle import (
    CirclePoint,
    circle_dist,
    is_subset,
    normalize,
    union,
)
from hutch.homeo import PLHomeo
from hutch.ifs import IFS, hutchinson, inverse_system, orbit_density_probe
from hutch.constructions import (
    Theorem1Params,
    blowup_map,
    build_theorem1,
    denjoy_approximant,
    diagonal_containment_check,
    theorem2_ifs,
)
from conftest import ALPHA, random_arcset, random_point

F = Fraction

PAPER_GRAPH_POINTS = {
    1: [(F(0), F(0)), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2))],
    2: [(F(0), F(0)), (F(5, 8), F(5, 8)), (F(6, 8), F(7, 8))],
    3: [(F(0), F(0)), (F(1, 2), F(1, 2)), (F(5, 8), F(3, 4)), (F(7, 8), F(7, 8))],
}


# -- theorem2 -----------------------------------------------------------------


def test_theorem2_breakpoint_fidelity(theorem2):
    for offset, points in PAPER_GRAPH_POINTS.items():
        g = theorem2.generators[offset]
        for x, y in points:
            assert g(CirclePoint(x)) == CirclePoint(y)


def test_theorem2_rotation_generator(theorem2):
    assert theorem2.generators[0] == PLHomeo.rotation(ALPHA)


def test_theorem2_alpha_validation():
    with pytest.raises(ValueError):
        theorem2_ifs(0)
    with pytest.raises(ValueError):
        theorem2_ifs(F(7, 5))


def test_diagonal_containment(theorem2):
    report = diagonal_containment_check(theorem2)
    assert report.covered
    # witness: f4 fixes [0, 1/2], f2 fixes [1/2, 1]
    covering = [s for s in report.fixed_sets if s is not None]
    total = covering[0]
    for s in covering[1:]:
        total = union(total, s)
    assert total.is_full


def test_diagonal_containment_inverse(theorem2):
    assert diagonal_containment_check(inverse_system(theorem2)).covered


def test_rotation_alone_fails_diagonal():
    system = IFS((PLHomeo.rotation(ALPHA),))
    assert not diagonal_containment_check(system).covered


def test_diagonal_containment_implies_growth(theorem2):
    rng = random.Random(3)
    inv = inverse_system(theorem2)
    for _ in range(16):
        a = random_arcset(rng)
        assert is_subset(a, hutchinson(theorem2, a))
        assert is_subset(a, hutchinson(inv, a))


# -- denjoy approximant ---------------------------------------------------------


def test_denjoy_gap_mass_exact(theorem1):
    approx = theorem1.approximants[0]
    inserted = sum((a.length for _, a in approx.gaps), F(0))
    assert inserted == approx.gap_mass
    assert approx.k_set.measure == 1 - approx.gap_mass


def test_denjoy_gap_count(theorem1):
    approx = theorem1.approximants[0]
    assert len(approx.gaps) == 2 * approx.stage + 1
    assert len(approx.k_set.arcs) == 2 * approx.stage + 1


def test_denjoy_gap_ladder_exact(theorem1):
    approx = theorem1.approximants[0]
    for n in range(-approx.stage, approx.stage):
        assert approx.g.image_arc(approx.gap(n)) == approx.gap(n + 1)


def test_denjoy_gap_lengths_decay(theorem1):
    approx = theorem1.approximants[0]
    for n in range(approx.stage):
        assert approx.gap(n + 1).length == approx.gap(n).length * approx.gap_ratio
        assert approx.gap(-n - 1).length == approx.gap(-n).length * approx.gap_ratio


def test_denjoy_rotation_number_tracks_alpha(theorem1):
    approx = theorem1.approximants[0]
    q = approx.alpha.denominator
    for n in (q // 2, q):
        lo, hi = approx.g.rotation_number_estimate(n)
        assert lo <= approx.alpha <= hi


def test_denjoy_small_mass_tracks_rotation():
    approx = denjoy_approximant(ALPHA, F(1, 2), F(1, 256), 8)
    rotation = PLHomeo.rotation(ALPHA)
    rng = random.Random(7)
    for _ in range(256):
        x = random_point(rng)
        assert circle_dist(approx.g(x), rotation(x)) <= F(1, 64)


def test_denjoy_preconditions():
    with pytest.raises(ValueError, match="denominator"):
        denjoy_approximant(F(1, 3), F(1, 2), F(1, 2), 8)
    with pytest.raises(ValueError):
        denjoy_approximant(ALPHA, F(3, 2), F(1, 2), 8)
    with pytest.raises(ValueError):
        denjoy_approximant(ALPHA, F(1, 2), F(2), 8)


def test_rotation_number_of_small_alpha_approximant():
    approx = denjoy_approximant(F(13, 21), F(1, 2), F(1, 2), 8)
    lo, hi = approx.g.rotation_number_estimate(42)
    assert lo <= F(13, 21) <= hi


# -- blowup map -------------------------------------------------------------------


def test_blowup_fixed_point_attracting(theorem1):
    blow = theorem1.blowup
    assert blow.h(blow.fixed_point) == blow.fixed_point
    assert blow.h.is_attracting(blow.fixed_point)
    assert blow.h.one_sided_slopes(blow.fixed_point) == (blow.sigma, blow.sigma)


def test_blowup_fixed_point_outside_k(theorem1):
    assert not theorem1.approximants[0].k_set.contains(theorem1.blowup.fixed_point)


def test_blowup_strictly_grows_k(theorem1):
    approx = theorem1.approximants[0]
    blow = theorem1.blowup
    image = normalize([blow.h.image_arc(a) for a in approx.k_set.arcs])
    assert is_subset(approx.k_set, image)
    assert image.measure > approx.k_set.measure


def test_blowup_identity_outside_support(theorem1):
    blow = theorem1.blowup
    rng = random.Random(11)
    count = 0
    while count < 64:
        x = random_point(rng)
        if blow.support.contains(x):
            continue
        count += 1
        assert blow.h(x) == x


def test_blowup_target_gap_midpoint(theorem1):
    blow = theorem1.blowup
    assert blow.fixed_point == blow.target_gap.midpoint


def test_blowup_sigma_validation(theorem1):
    with pytest.raises(ValueError):
        blowup_map(theorem1.approximants[0], 0, F(3, 2))


# -- assembled theorem1 system ------------------------------------------------------


def test_theorem1_single_approximant_shape():
    built = build_theorem1(Theorem1Params(approximant_count=1))
    forward, backward = built.forward, built.backward
    assert len(forward.generators) == 3
    assert len(backward.generators) == 3
    rng = random.Random(13)
    double = inverse_system(backward)
    for g, g2 in zip(forward.generators, double.generators):
        for _ in range(16):
            x = random_point(rng)
            assert g(x) == g2(x)


def test_theorem1_h_round_trip(theorem1):
    h = theorem1.forward.generators[-1]
    hinv = theorem1.backward.generators[-1]
    rng = random.Random(17)
    for _ in range(64):
        x = random_point(rng)
        assert hinv(h(x)) == x


def test_theorem1_symmetric_part_shared(theorem1):
    fw = set(theorem1.forward.generators[:-1])
    bw = set(theorem1.backward.generators[:-1])
    assert fw == bw


def test_theorem1_default_interleaving(theorem1):
    gaps0 = theorem1.approximants[0].gap(0)
    gaps1 = theorem1.approximants[1].gap(0)
    # the dominant inserted gaps must not overlap, else their union leaves a
    # macroscopic joint hole that defeats the mixing argument
    assert circle_dist(gaps0.midpoint, gaps1.midpoint) > F(1, 8)


def test_theorem1_forward_orbit_density(theorem1):
    k_point = theorem1.approximants[0].k_set.arcs[3].start
    report = orbit_density_probe(
        theorem1.forward, k_point, depth=10, epsilon=F(1, 32)
    )
    assert report.verdict
    assert report.orbit_size == 211_311
    assert report.largest_gap == F(123, 1_348_160)

