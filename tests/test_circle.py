import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hutch.circle import (
    Arc,
    ArcSet,
    CirclePoint,
    arc,
    arcset_from_obj,
    arcset_to_obj,
    circle_dist,
    complement_gaps,
    full_circle,
    gap_radius,
    hausdorff,
    is_subset,
    normalize,
    point_set,
    union,
)
from hutch.ifs import PrecisionPolicy
from conftest import random_arcset

F = Fraction

GRID = 2**12


def grid_members(a: ArcSet) -> list[Fraction]:
    return [
        F(k, GRID) for k in range(GRID) if a.contains(CirclePoint(F(k, GRID)))
    ]


def brute_hausdorff(a: ArcSet, b: ArcSet) -> Fraction:
    """Grid sup-inf oracle at resolution 1/GRID, independent of the
    endpoint-sweep implementation."""

    def directed(ps, qs):
        best = F(0)
        for p in ps:
            i = bisect_left(qs, p)
            near = min(
                circle_dist(CirclePoint(p), CirclePoint(qs[j % len(qs)]))
                for j in (i - 1, i)
            )
            best = max(best, near)
        return best

    pa, pb = grid_members(a), grid_members(b)
    return max(directed(pa, pb), directed(pb, pa))


# -- circle_dist ---------------------------------------------------------------


def test_circle_dist_identity():
    assert circle_dist(CirclePoint(0), CirclePoint(0)) == 0


def test_circle_dist_antipodal_max():
    assert circle_dist(CirclePoint(0), CirclePoint(F(1, 2))) == F(1, 2)


def test_circle_dist_wraps():
    # brute force: min(6/8, 2/8) = 1/4
    assert circle_dist(CirclePoint(F(1, 8)), CirclePoint(F(7, 8))) == F(1, 4)


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
)
def test_circle_dist_metric_axioms(x, y, z):
    a, b, c = CirclePoint(x), CirclePoint(y), CirclePoint(z)
    assert circle_dist(a, b) == circle_dist(b, a)
    assert circle_dist(a, b) <= circle_dist(a, c) + circle_dist(c, b)
    assert (circle_dist(a, b) == 0) == (a == b)
    assert 0 <= circle_dist(a, b) <= F(1, 2)


# -- normalize -----------------------------------------------------------------


def test_normalize_rejects_empty():
    with pytest.raises(ValueError, match="empty set"):
        normalize([])


def test_normalize_merges_touching():
    out = normalize([arc(0, F(1, 4)), arc(F(1, 4), F(1, 4))])
    assert out.arcs == (Arc(CirclePoint(0), F(1, 2)),)


def test_normalize_total_cover_is_full_circle():
    out = normalize([arc(0, F(3, 4)), arc(F(1, 2), F(3, 4))])
    assert out.is_full
    assert out == full_circle()


def test_normalize_wraparound_merge():
    raw = [arc(F(7, 8), F(1, 4)), arc(F(1, 8), F(1, 8))]
    out = normalize(raw)
    assert out.arcs == (Arc(CirclePoint(F(7, 8)), F(3, 8)),)
    # membership oracle on the 1/2^12 grid
    for k in range(GRID):
        p = CirclePoint(F(k, GRID))
        assert out.contains(p) == any(a.contains(p) for a in raw)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=32),
            st.fractions(min_value=0, max_value=1, max_denominator=32),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_normalize_idempotent_and_membership(raw_pairs):
    raw = [Arc(CirclePoint(s), l) for s, l in raw_pairs]
    out = normalize(raw)
    assert normalize(list(out.arcs)) == out
    rng = random.Random(7)
    for _ in range(50):
        p = CirclePoint(F(rng.randrange(2**10), 2**10))
        assert out.contains(p) == any(a.contains(p) for a in raw)


# -- union ----------------------------------------------------------------------


def test_union_idempotent():
    a = normalize([arc(F(1, 8), F(1, 4)), arc(F(3, 4), 0)])
    assert union(a, a) == a


def test_union_singletons():
    out = union(point_set([CirclePoint(0)]), point_set([CirclePoint(F(1, 2))]))
    assert out.arcs == (
        Arc(CirclePoint(0), F(0)),
        Arc(CirclePoint(F(1, 2)), F(0)),
    )


def test_union_overlapping():
    a = normalize([arc(0, F(1, 4))])
    b = normalize([arc(F(1, 8), F(3, 8))])
    out = union(a, b)
    assert out.arcs == (Arc(CirclePoint(0), F(1, 2)),)
    for k in range(GRID):
        p = CirclePoint(F(k, GRID))
        assert out.contains(p) == (a.contains(p) or b.contains(p))


# -- complement_gaps -------------------------------------------------------------


def test_gaps_of_full_circle():
    assert complement_gaps(full_circle()) == ()


def test_gaps_of_singleton():
    gaps = complement_gaps(point_set([CirclePoint(0)]))
    assert gaps == (Arc(CirclePoint(0), F(1)),)


def test_gaps_two_arcs():
    a = normalize([arc(0, F(1, 4)), arc(F(1, 2), F(1, 4))])
    assert complement_gaps(a) == (
        Arc(CirclePoint(F(1, 4)), F(1, 4)),
        Arc(CirclePoint(F(3, 4)), F(1, 4)),
    )


# -- is_subset -------------------------------------------------------------------


def test_subset_reflexive():
    a = random_arcset(random.Random(3))
    assert is_subset(a, a)


def test_subset_point_in_arc():
    assert is_subset(point_set([CirclePoint(F(1, 8))]), normalize([arc(0, F(1, 4))]))


def test_subset_counterexample():
    a = normalize([arc(0, F(1, 4))])
    b = normalize([arc(F(1, 8), F(3, 8))])
    assert not is_subset(a, b)  # the point 0 is not in b


# -- hausdorff -------------------------------------------------------------------


def test_hausdorff_identity():
    a = random_arcset(random.Random(11))
    assert hausdorff(a, a) == 0


def test_hausdorff_singletons():
    assert hausdorff(
        point_set([CirclePoint(0)]), point_set([CirclePoint(F(1, 2))])
    ) == F(1, 2)


def test_hausdorff_nested_arcs():
    a = normalize([arc(0, F(1, 4))])
    b = normalize([arc(0, F(1, 2))])
    exact = hausdorff(a, b)
    assert exact == F(1, 4)
    assert abs(exact - brute_hausdorff(a, b)) <= F(1, GRID)


def test_hausdorff_zero_iff_equal():
    rng = random.Random(23)
    for _ in range(40):
        a = random_arcset(rng)
        b = random_arcset(rng)
        assert (hausdorff(a, b) == 0) == (a == b)


def test_hausdorff_metric_axioms_sampled():
    rng = random.Random(29)
    for _ in range(25):
        a, b, c = (random_arcset(rng) for _ in range(3))
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, b) <= hausdorff(a, c) + hausdorff(c, b)


def test_hausdorff_grid_oracle_sampled():
    rng = random.Random(31)
    for _ in range(20):
        a = random_arcset(rng)
        b = random_arcset(rng)
        assert abs(hausdorff(a, b) - brute_hausdorff(a, b)) <= F(1, GRID)


# -- gap_radius ------------------------------------------------------------------


def test_gap_radius_full():
    assert gap_radius(full_circle()) == 0


def test_gap_radius_singleton():
    assert gap_radius(point_set([CirclePoint(0)])) == F(1, 2)


def test_gap_radius_two_arcs():
    a = normalize([arc(0, F(1, 4)), arc(F(1, 2), F(1, 4))])
    assert gap_radius(a) == F(1, 8)


def test_gap_radius_is_distance_to_full():
    rng = random.Random(37)
    for _ in range(40):
        a = random_arcset(rng)
        assert gap_radius(a) == hausdorff(a, full_circle())


# -- precision passes (PrecisionPolicy.apply: round, then fill gaps) ---------------


def coarsen(a: ArcSet, eta: Fraction) -> tuple[ArcSet, bool]:
    return PrecisionPolicy(coarsen_eta=eta).apply(a)


def limit_denominators(a: ArcSet, max_denominator: int) -> ArcSet:
    return PrecisionPolicy(denominator_limit=max_denominator).apply(a)[0]


def test_coarsen_fills_small_gaps():
    a = normalize([arc(0, F(1, 4)), arc(F(5, 16), F(1, 4))])
    out, coarsened = coarsen(a, F(1, 8))
    assert out.arcs == (Arc(CirclePoint(0), F(9, 16)),)
    assert coarsened
    assert coarsen(a, F(1, 32)) == (a, False)


def test_coarsen_everything_gives_full():
    a = normalize([arc(0, F(1, 2)), arc(F(5, 8), F(1, 4))])
    out, coarsened = coarsen(a, F(1, 4))
    assert out.is_full and coarsened


def test_coarsen_flags_single_arc_filled_to_full_circle():
    # the arc count stays 1, but filling the 1/1024 gap changed the set
    a = normalize([arc(0, F(1023, 1024))])
    out, coarsened = coarsen(a, F(1, 512))
    assert out.is_full and coarsened


def test_limit_denominators_rounds_endpoints():
    a = normalize([arc(F(1, 3), F(1, 7))])
    out = limit_denominators(a, 16)
    for piece in out.arcs:
        assert piece.start.value.denominator <= 16
        assert (piece.start.value + piece.length).denominator <= 16
    assert hausdorff(a, out) <= F(1, 16)


def test_limit_denominators_preserves_degenerate_lengths():
    pts = point_set([CirclePoint(F(1, 3))])
    out = limit_denominators(pts, 4)
    assert out.arcs[0].length == 0
    assert limit_denominators(full_circle(), 4).is_full


# -- serialization -----------------------------------------------------------------


def test_arcset_json_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        a = random_arcset(rng)
        assert arcset_from_obj(arcset_to_obj(a)) == a


def test_canonical_constructor_rejects_overlap():
    with pytest.raises(ValueError):
        ArcSet((Arc(CirclePoint(0), F(1, 2)), Arc(CirclePoint(F(1, 4)), F(1, 2))))
