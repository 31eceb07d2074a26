import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hutch.circle import (
    Arc,
    ArcSet,
    CirclePoint,
    _grid_arcset,
    _grid_point,
    _normalize_segments_flagged,
    arc,
    circle_dist,
    complement_gaps,
    full_circle,
    gap_radius,
    hausdorff,
    is_subset,
    normalize,
    point_set,
    round_arcset,
    union,
)
from hutch.cli import _arcset, _json
from hutch.ifs import PrecisionPolicy, _images, hutchinson_step, inverse_system
from conftest import grid_rounded, random_arcset

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


TINY = F(1, 10**30)


@st.composite
def lift_segments(draw):
    """Lift-line segments (lo, hi) as the normaliser receives them: starts
    shifted by -3..5, lengths 0, 1, above 1 and in between, denominators up
    to 10^6 and near 2^80, some pairs of distinct starts 10^-30 apart, and
    some starts at a fill threshold (or 0) past the previous end."""
    denominators = st.one_of(
        st.sampled_from([1, 2, 3, 2048, 4096]),
        st.integers(1, 10**6),
        st.integers(2**80 - 2**8, 2**80 + 2**8),
    )
    steps = st.sampled_from([F(0), F(1, 4096), F(1, 2048), F(1, 2)])
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        d = draw(denominators)
        lo = F(draw(st.integers(0, d - 1)), d) + draw(st.integers(-3, 5))
        if segments and draw(st.booleans()):
            lo = segments[-1][1] + draw(steps)
        kind = draw(st.integers(0, 15))
        if kind < 3:
            length = [F(0), F(1), 1 + F(draw(st.integers(1, d)), d)][kind]
        elif kind < 9:
            length = F(draw(st.integers(0, max(1, d // 8))), d)
        else:
            length = F(draw(st.integers(0, d)), d)
        segments.append((lo, lo + length))
        if draw(st.integers(0, 3)) == 0:
            near = lo - TINY if draw(st.booleans()) else lo + TINY
            segments.append((near, near + draw(st.sampled_from([F(0), length]))))
    return segments


def covered(segments, p: CirclePoint) -> bool:
    """Some lift-line segment covers p mod 1."""
    return any(hi - lo >= 1 or (p.value - lo) % 1 <= hi - lo for lo, hi in segments)


@settings(max_examples=300)
@given(lift_segments(), st.sampled_from([None, F(1, 2048), F(1, 2)]))
@example([(F(1, 3), F(1, 3) + F(1, 100)), (F(1, 3) - TINY, F(1, 3) - TINY)], None)
def test_normalizer_matches_segment_oracle(segments, eta):
    plain, plain_flag = _normalize_segments_flagged(segments)
    out, flag = _normalize_segments_flagged(iter(segments), eta)
    for result in (plain, out):
        # canonical, and every arc passes the checks its builder skipped
        rebuilt = tuple(Arc(CirclePoint(a.start.value), a.length) for a in result.arcs)
        assert ArcSet(rebuilt) == result
        assert all(0 <= a.start.value < 1 for a in result.arcs)
    assert not plain_flag
    points = [CirclePoint(lo) for lo, _ in segments] + [CirclePoint(hi) for _, hi in segments]
    points += [g.midpoint for g in complement_gaps(plain)]
    eps = F(1, 10**40)
    for p in list(points):
        points += [p - eps, p + eps]
    for p in points:
        assert plain.contains(p) == covered(segments, p)
    if eta is None:
        assert (out, flag) == (plain, False)
        return
    # filling closes exactly the gaps shorter than eta, and the flag says so
    kept = [g for g in complement_gaps(plain) if g.length >= eta]
    assert complement_gaps(out) == tuple(kept)
    assert flag == (out != plain)


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


def exact_point_distance(p: CirclePoint, b: ArcSet) -> Fraction:
    """0 if b contains p, else the distance to the nearest b arc endpoint."""
    if any(piece.contains(p) for piece in b.arcs):
        return F(0)
    return min(
        min(circle_dist(p, piece.start), circle_dist(p, piece.end))
        for piece in b.arcs
    )


def exact_directed_hausdorff(a: ArcSet, b: ArcSet) -> Fraction:
    """Brute-force sup over a of the distance to b: the max over a's arc
    endpoints and over the midpoints of b's gaps that lie in a."""
    candidates = [p for piece in a.arcs for p in (piece.start, piece.end)]
    if not b.is_full:
        for i, piece in enumerate(b.arcs):
            after = b.arcs[(i + 1) % len(b.arcs)].start
            gap = (after.value - piece.end.value) % 1 or F(1)
            mid = piece.end + gap / 2
            if any(q.contains(mid) for q in a.arcs):
                candidates.append(mid)
    return max(exact_point_distance(p, b) for p in candidates)


@st.composite
def arcsets(draw, denominator):
    """Unions of up to 5 arcs on the grid 1/denominator: zero-length,
    touching (shared grid points), wrapping past 0 and full-circle arcs."""
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(0, denominator - 1))
        length = draw(
            st.one_of(
                st.just(0),
                st.just(denominator),
                st.integers(0, max(1, denominator // 8)),
                st.integers(0, denominator),
            )
        )
        pieces.append(Arc(CirclePoint(F(start, denominator)), F(length, denominator)))
    return normalize(pieces)


@st.composite
def arcset_pairs(draw):
    """Two sets on one grid (so arcs of a and b often touch), or on two."""
    d1 = draw(st.one_of(st.sampled_from([1, 2, 3, 8, 12]), st.integers(1, 10**6)))
    d2 = draw(st.one_of(st.just(d1), st.integers(1, 10**6)))
    return draw(arcsets(d1)), draw(arcsets(d2))


@settings(max_examples=300)
@given(arcset_pairs())
def test_hausdorff_and_gap_radius_match_exact_oracle(pair):
    a, b = pair
    assert hausdorff(a, b) == max(
        exact_directed_hausdorff(a, b), exact_directed_hausdorff(b, a)
    )
    assert gap_radius(a) == exact_directed_hausdorff(full_circle(), a)


def arc_fits(q: Arc, r: Arc) -> bool:
    """q lies inside the closed arc r, from the Arc fields alone."""
    if r.length == 1:
        return True
    if q.length == 1:
        return False
    return (q.start.value - r.start.value) % 1 + q.length <= r.length


@settings(max_examples=300)
@given(arcset_pairs())
def test_subset_and_contains_match_arc_oracle(pair):
    a, b = pair
    # a connected arc inside b lies in one of b's disjoint closed arcs
    assert is_subset(a, b) == all(any(arc_fits(q, r) for r in b.arcs) for q in a.arcs)
    eps = F(1, 10**7)
    first = b.arcs[0].start
    points = [first - eps, CirclePoint(first.value / 2)]
    for piece in a.arcs + b.arcs:
        for p in (piece.start, piece.end):
            points += [p, p - eps, p + eps]
        points.append(piece.midpoint)
    for p in points:
        assert b.contains(p) == any(q.contains(p) for q in b.arcs)


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


# -- precision passes (round_arcset: round, then fill gaps) -------------------------


def coarsen(a: ArcSet, eta: Fraction) -> tuple[ArcSet, bool]:
    return round_arcset(a, None, eta)


def round_to_grid(a: ArcSet, grid: int) -> ArcSet:
    return round_arcset(a, grid, None)[0]


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


def test_round_to_grid_rounds_endpoints():
    a = normalize([arc(F(1, 3), F(1, 7))])
    out = round_to_grid(a, 16)
    for piece in out.arcs:
        assert 16 % piece.start.value.denominator == 0
        assert 16 % (piece.start.value + piece.length).denominator == 0
    assert hausdorff(a, out) <= F(1, 32)


def test_round_to_grid_preserves_degenerate_lengths():
    pts = point_set([CirclePoint(F(1, 3))])
    out = round_to_grid(pts, 4)
    assert out.arcs[0].length == 0
    assert round_to_grid(full_circle(), 4).is_full


LIMITS = [1, 2, 3, 16, 2**16]


@st.composite
def rounding_points(draw, limit):
    """Rationals to round to the grid (1/limit)Z: grid midpoints (the tie
    rule) and points 2^-100 off them, denominators above 2^80, and small
    ones, shifted by -5..5."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        k = draw(st.integers(0, limit - 1))
        off = draw(st.sampled_from([0, 0, F(1, 2**100), -F(1, 2**100)]))
        x = F(2 * k + 1, 2 * limit) + off
    elif kind == 1:
        d = draw(st.integers(2**80, 2**90))
        x = F(draw(st.integers(0, d - 1)), d)
    else:
        x = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    return x + draw(st.integers(-5, 5))


def on_grid(x: Fraction, limit: int) -> int:
    return _grid_point(x.numerator, x.denominator, limit)


@settings(max_examples=300)
@given(st.data(), st.one_of(st.sampled_from(LIMITS), st.integers(1, 2**16)))
def test_grid_point_moves_a_point_by_at_most_half_a_step(data, limit):
    # what a limited step rests on: the nearest multiple of 1/D, ties up,
    # which is monotone and commutes with integer shifts
    x = data.draw(rounding_points(limit))
    k = on_grid(x, limit)
    assert F(k, limit) == grid_rounded(x, limit)
    assert abs(F(k, limit) - x) <= F(1, 2 * limit)
    assert limit % F(k, limit).denominator == 0
    steps = [0, F(1, 2**100), F(1, 2 * limit), F(1, limit)]
    step = data.draw(st.sampled_from(steps))
    y = data.draw(st.one_of(rounding_points(limit), st.just(x + step)))
    lo, hi = min(x, y), max(x, y)
    assert on_grid(lo, limit) <= on_grid(hi, limit)
    for j in (-3, 1, 7):
        assert on_grid(x + j, limit) == k + j * limit
    assert on_grid(F(2 * k + 1, 2 * limit), limit) == k + 1  # a tie rounds up


ETAS = [None, F(1, 2048), F(1, 3), F(1, 2), F(1)]
OFF = F(1, 2**100)


@st.composite
def margin_segments(draw, limit, eta):
    """Segments with ends at rounding points, each starting after the last
    by a gap at a margin of the rounded merge: 1/D, eta - 1/D, eta or
    eta + 1/D, exactly or 2^-100 either side."""
    widths = [F(1, limit)]
    if eta is not None:
        widths += [eta - F(1, limit), eta, eta + F(1, limit)]
    gaps = [w + off for w in widths for off in (0, OFF, -OFF) if w + off > 0]
    lo = draw(rounding_points(limit))
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        end = draw(rounding_points(limit))
        length = draw(st.sampled_from([F(0), (end - lo) % 1]))
        segments.append((lo, lo + length))
        lo += length + draw(st.sampled_from(gaps))
    return segments


@st.composite
def rounding_cases(draw):
    """(segments, D, eta): any lift-line segments, or margin segments."""
    limit = draw(st.sampled_from(LIMITS))
    eta = draw(st.sampled_from(ETAS))
    segments = draw(st.one_of(lift_segments(), margin_segments(limit, eta)))
    return segments, limit, eta


@settings(max_examples=300)
@given(rounding_cases())
# less than 1/D apart, rounding to touch: merged, not filled
@example(([(F(0), F(1, 5)), (F(1, 5) + F(1, 2**20), F(1, 3))], 16, F(1, 3)))
# less than 1/D apart, rounding a step apart: filled
@example(([(F(0), F(1, 5)), (F(1, 5) + F(1, 32), F(1, 3))], 16, F(1, 3)))
# a gap that rounds to exactly eta D grid units: not filled
@example(([(F(0), F(1, 16)), (F(3, 16) + F(1, 64), F(1, 4))], 16, F(1, 8)))
# points 1/4 and 3/4 rounding to 1/2 and 1: gaps of 1/2, filled at eta = 1
@example(([(F(1, 4),) * 2, (F(3, 4),) * 2], 2, F(1)))
# a segment whose rounded length reaches 1: the full circle
@example(([(F(1, 64), F(63, 64)), (F(1, 2), F(1, 2))], 16, None))
# ties, which round up: 1/2 to 1, -1/4 to 0, -3/4 to -1/2
@example(([(F(1, 2),) * 2], 1, None))
@example(([(F(-1, 4),) * 2, (F(-3, 4),) * 2], 2, None))
def test_rounding_runs_matches_rounding_segments(case):
    # the int run builder, fed the rounded ends in grid units, gives what
    # normalising the segments rounded in Fraction arithmetic gives
    segments, limit, eta = case
    ints = [(on_grid(lo, limit), on_grid(hi, limit)) for lo, hi in segments]
    out, coarsened = _grid_arcset(iter(ints), limit, eta)
    ends = [v for piece in out.arcs for v in (piece.start.value, piece.length)]
    assert all(limit % v.denominator == 0 for v in ends)
    reference = [
        (grid_rounded(lo, limit), grid_rounded(hi, limit)) for lo, hi in segments
    ]
    assert (out, coarsened) == _normalize_segments_flagged(reference, eta)


SYSTEMS = ("theorem1 forward", "theorem1 backward", "theorem2", "theorem2 inverse")


@settings(max_examples=100)
@given(
    st.sampled_from(SYSTEMS),
    st.sampled_from(LIMITS),
    st.sampled_from(ETAS),
    st.sampled_from([16, 64, 2**16]),
    st.randoms(use_true_random=False),
)
def test_limited_step_matches_rounding_every_image_end(
    theorem1, theorem2, name, limit, eta, denom, rng
):
    # a limited step maps grid ends through the grid lifts; the reference
    # rounds both ends of every exact image segment, then normalises
    system = {
        "theorem1 forward": theorem1.forward,
        "theorem1 backward": theorem1.backward,
        "theorem2": theorem2,
        "theorem2 inverse": inverse_system(theorem2),
    }[name]
    a, _ = round_arcset(random_arcset(rng, max_arcs=6, denom=denom), limit, None)
    rounded = [
        (grid_rounded(lo, limit), grid_rounded(hi, limit))
        for lo, hi in _images(system.generators, a)
    ]
    policy = PrecisionPolicy(denominator_limit=limit, coarsen=eta)
    assert hutchinson_step(system, a, policy) == _normalize_segments_flagged(
        rounded, eta
    )


# -- serialization -----------------------------------------------------------------


def test_arcset_json_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        a = random_arcset(rng)
        assert _arcset(_json(a)) == a


def test_canonical_constructor_rejects_overlap():
    with pytest.raises(ValueError):
        ArcSet((Arc(CirclePoint(0), F(1, 2)), Arc(CirclePoint(F(1, 4)), F(1, 2))))
