import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hutch import build_theorem1, theorem2_ifs
from hutch.circle import Arc, CirclePoint, _grid_point, arc, full_circle, normalize
from hutch.cli import _homeo, _json
from hutch.homeo import InvalidHomeoError, PLHomeo
from conftest import ALPHA, grid_rounded, random_point

F = Fraction


def generators(theorem2, theorem1):
    return list(theorem2.generators) + list(theorem1.forward.generators)


# -- construction ------------------------------------------------------------------


def test_rotation_has_no_breakpoints():
    r = PLHomeo.rotation(F(1, 3))
    assert not r.breakpoints and r.offset == F(1, 3)


def test_collinear_breakpoints_prune_to_rotation():
    f = PLHomeo.from_graph([(0, F(1, 4)), (F(1, 2), F(3, 4))])
    assert f == PLHomeo.rotation(F(1, 4))


def test_invalid_cyclic_order_rejected():
    with pytest.raises(InvalidHomeoError):
        PLHomeo.from_graph([(0, 0), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 4))])


def test_duplicate_breakpoint_rejected():
    with pytest.raises(InvalidHomeoError):
        PLHomeo(
            (
                (CirclePoint(0), CirclePoint(0)),
                (CirclePoint(0), CirclePoint(F(1, 2))),
            )
        )


# -- eval --------------------------------------------------------------------------


def test_eval_f2_paper_breakpoint(theorem2):
    f2 = theorem2.generators[1]
    assert f2(CirclePoint(F(1, 4))) == CirclePoint(F(1, 8))


def test_eval_rotation_wraps():
    assert PLHomeo.rotation(F(1, 3))(CirclePoint(F(2, 3))) == CirclePoint(0)


def test_eval_f2_interpolates(theorem2):
    # segment (1/4,1/8)-(1/2,1/2) has slope 3/2: 1/8 + (3/2)(1/8) = 5/16
    f2 = theorem2.generators[1]
    assert f2(CirclePoint(F(3, 8))) == CirclePoint(F(5, 16))


# -- invert ------------------------------------------------------------------------


def test_invert_rotation():
    assert PLHomeo.rotation(F(1, 3)).invert() == PLHomeo.rotation(F(2, 3))


def test_invert_f2_swaps_breakpoints(theorem2):
    f2inv = theorem2.generators[1].invert()
    assert f2inv(CirclePoint(F(1, 8))) == CirclePoint(F(1, 4))


def test_invert_identity():
    assert PLHomeo.identity().invert() == PLHomeo.identity()


def test_round_trip_all_generators(theorem2, theorem1):
    rng = random.Random(5)
    for g in generators(theorem2, theorem1):
        ginv = g.invert()
        for _ in range(64):
            x = random_point(rng)
            assert ginv(g(x)) == x


# -- lift / degree one --------------------------------------------------------------


def test_lift_monotone(theorem2, theorem1):
    rng = random.Random(13)
    for g in generators(theorem2, theorem1):
        for _ in range(32):
            x = F(rng.randrange(2**10), 2**10)
            y = x + F(rng.randrange(1, 2**6), 2**10)
            assert g.lift(x) < g.lift(y)


def test_lift_degree_one(theorem2, theorem1):
    rng = random.Random(17)
    for g in generators(theorem2, theorem1):
        for _ in range(16):
            x = F(rng.randrange(2**10), 2**10)
            assert g.lift(x + 1) == g.lift(x) + 1


def piecewise_lift(g: PLHomeo, x: F) -> F:
    """Reference lift in Fraction arithmetic: ys[j] + slope_j (t - xs[j]) + n
    on the piece [xs[j], xs[j+1]) holding t = x - n."""
    if not g.breakpoints:
        return x + g.offset
    xs = [p.value for p, _ in g.breakpoints]
    y0 = g.breakpoints[0][1].value
    ys = [y0] + [q.value if q.value > y0 else q.value + 1 for _, q in g.breakpoints[1:]]
    xs.append(xs[0] + 1)
    ys.append(y0 + 1)
    n = math.floor(x)
    t = x - n
    if t < xs[0]:
        t, n = t + 1, n - 1
    j = max(i for i in range(len(xs) - 1) if xs[i] <= t)
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return ys[j] + slope * (t - xs[j]) + n


def test_lift_matches_piecewise_formula(theorem2, theorem1):
    rng = random.Random(43)
    gens = generators(theorem2, theorem1) + list(theorem1.backward.generators)
    # 10**-20 is below float resolution, so the float bisect hint is off
    tiny = (F(0), F(1, 10**9), F(-1, 10**9), F(1, 10**20), F(-1, 10**20))
    for g in gens:
        points = [p.value for p, _ in g.breakpoints]
        points += [F(rng.randrange(10**6), 10**6) for _ in range(8)]
        for p in points:
            for shift in (-3, -1, 0, 1, 5):
                for eps in tiny:
                    x = p + shift + eps
                    assert g.lift(x) == piecewise_lift(g, x)
            for length in (F(0), F(1), F(1, 10**6), F(rng.randrange(1, 997), 997)):
                a = Arc(CirclePoint(p), length)
                assert g.image_segment(a) == (g.lift(p), g.lift(p + length))


# -- image_arc ----------------------------------------------------------------------


def test_image_of_full_circle(theorem2):
    for g in theorem2.generators:
        assert g.image_arc(Arc(CirclePoint(F(1, 5)), F(1))).length == 1


def test_image_of_singleton(theorem2):
    f2 = theorem2.generators[1]
    out = f2.image_arc(Arc(CirclePoint(F(1, 4)), F(0)))
    assert out == Arc(CirclePoint(F(1, 8)), F(0))


def test_image_arc_endpoints(theorem2):
    f2 = theorem2.generators[1]
    out = f2.image_arc(Arc(CirclePoint(F(1, 4)), F(1, 4)))
    assert out == Arc(CirclePoint(F(1, 8)), F(3, 8))  # [1/8, 1/2]


def test_image_arc_endpoint_law(theorem2, theorem1):
    rng = random.Random(19)
    for g in generators(theorem2, theorem1):
        for _ in range(16):
            a = Arc(random_point(rng), F(rng.randrange(2**8), 2**10))
            out = g.image_arc(a)
            assert out.start == g(a.start)
            assert out.end == g(a.end)


# -- fixed points --------------------------------------------------------------------


def test_fixed_points_rotation():
    assert PLHomeo.rotation(F(1, 3)).fixed_points() is None


def test_fixed_points_identity():
    assert PLHomeo.identity().fixed_points() == full_circle()


def test_fixed_points_f2(theorem2):
    # f2 agrees with the identity exactly on the arc [1/2, 1]
    assert theorem2.generators[1].fixed_points() == normalize(
        [arc(F(1, 2), F(1, 2))]
    )


def test_fixed_points_perturbed_map():
    f = PLHomeo.from_graph([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2))])
    fixed = f.fixed_points()
    # the diagonal segment [1/2, 1] plus the crossing at 0
    assert fixed == normalize([arc(F(1, 2), F(1, 2))])


# -- is_attracting -------------------------------------------------------------------


def test_identity_not_attracting():
    assert not PLHomeo.identity().is_attracting(CirclePoint(0))


def test_contraction_attracting():
    f = PLHomeo.from_graph(
        [(0, 0), (F(1, 4), F(1, 8)), (F(3, 4), F(7, 8)), (F(7, 8), F(15, 16))]
    )
    assert f(CirclePoint(0)) == CirclePoint(0)
    assert f.is_attracting(CirclePoint(0))


def test_f2_zero_not_attracting(theorem2):
    # left slope at 0 is 1 (identity segment), right slope is 1/2
    f2 = theorem2.generators[1]
    assert f2.one_sided_slopes(CirclePoint(0)) == (F(1), F(1, 2))
    assert not f2.is_attracting(CirclePoint(0))


def test_is_attracting_requires_fixed_point(theorem2):
    with pytest.raises(ValueError, match="not a fixed point"):
        theorem2.generators[0].is_attracting(CirclePoint(0))


# -- grid lift ----------------------------------------------------------------------

THEOREM1 = build_theorem1()
# Every theorem1 and theorem2 generator, and rotations (one piece each).
GRID_LIFT_MAPS = (
    list(theorem2_ifs(ALPHA).generators)
    + [g for s in (THEOREM1.forward, THEOREM1.backward) for g in s.generators]
    + [PLHomeo.rotation(F(13, 21)), PLHomeo.rotation(F(6, 7)), PLHomeo.identity()]
)
GRID_LIFT_LIMITS = [1, 2, 16, 2**16]


@st.composite
def grid_lift_cases(draw):
    """(map index, D, k): k a grid unit in [-2D, 3D]."""
    index = draw(st.integers(0, len(GRID_LIFT_MAPS) - 1))
    limit = draw(st.sampled_from(GRID_LIFT_LIMITS))
    return index, limit, draw(st.integers(-2 * limit, 3 * limit))


def piece_start_examples(test):
    """An @example at each piece start ceil(x_j D) and the unit before it,
    for every map and D, and a turn below the first start, where the lift
    wraps to the last piece."""
    cases = set()
    for index, g in enumerate(GRID_LIFT_MAPS):
        for limit in GRID_LIFT_LIMITS:
            starts = [
                -(-x.value.numerator * limit // x.value.denominator)
                for x, _ in g.breakpoints
            ] or [0]
            cases.update((index, limit, k) for b in starts for k in (b, b - 1))
            cases.add((index, limit, starts[0] - 1 - limit))
    for case in sorted(cases):
        test = example(case)(test)
    return test


@piece_start_examples
@given(grid_lift_cases())
def test_grid_lift_rounds_the_lift(case):
    index, limit, k = case
    g = GRID_LIFT_MAPS[index]
    image = g._grid_lift(limit)(k)
    assert image == _grid_point(*g._lift_ints(k, limit), limit)
    assert F(image, limit) == grid_rounded(g.lift(F(k, limit)), limit)


# -- serialization --------------------------------------------------------------


def test_homeo_json_round_trip(theorem2, theorem1):
    rng = random.Random(21)
    for g in generators(theorem2, theorem1):
        back = _homeo(_json(g), "")
        assert back == g
        for _ in range(16):
            x = random_point(rng)
            assert back(x) == g(x)
