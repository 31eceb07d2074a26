import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hutch.circle as circle
import hutch.ifs as ifs
from hutch.circle import (
    Arc,
    CirclePoint,
    _normalize_segments_flagged,
    full_circle,
    gap_radius,
    is_subset,
    normalize,
    point_set,
    union,
)
from hutch.homeo import PLHomeo
from hutch.ifs import (
    EXACT,
    IFS,
    PROBE_POLICY,
    PrecisionPolicy,
    ResourceCapError,
    Step,
    VERDICT_CONVERGED,
    VERDICT_NOT_CONVERGED,
    _images,
    attractor_probe,
    hutchinson,
    hutchinson_step,
    invariance_check,
    inverse_system,
    iterate,
    orbit,
    orbit_density_probe,
)
from hutch.probes import covering_time
from conftest import ALPHA, grid_rounded, random_arcset, random_point

F = Fraction


def rotation_system(alpha) -> IFS:
    return IFS((PLHomeo.rotation(alpha),), label="rotation")


# -- inverse_system ------------------------------------------------------------


def test_inverse_is_involution(theorem2):
    rng = random.Random(3)
    double = inverse_system(inverse_system(theorem2))
    for g, g2 in zip(theorem2.generators, double.generators):
        for _ in range(32):
            x = random_point(rng)
            assert g(x) == g2(x)


def test_inverse_of_rotation():
    inv = inverse_system(rotation_system(F(1, 3)))
    assert inv.generators[0] == PLHomeo.rotation(F(2, 3))


def test_inverse_theorem2_generator_two(theorem2):
    inv = inverse_system(theorem2)
    assert inv.generators[1](CirclePoint(F(1, 8))) == CirclePoint(F(1, 4))


# -- hutchinson ----------------------------------------------------------------


def test_identity_system_fixes_sets():
    system = IFS((PLHomeo.identity(),))
    a = random_arcset(random.Random(5))
    assert hutchinson(system, a) == a


def test_theorem2_image_of_zero(theorem2):
    # the three PL maps fix 0; the rotation moves it to alpha
    out = hutchinson(theorem2, point_set([CirclePoint(0)]))
    assert out == point_set([CirclePoint(0), CirclePoint(ALPHA)])


def test_full_circle_is_fixed(theorem2, theorem1):
    for system in (theorem2, theorem1.forward, theorem1.backward):
        assert hutchinson(system, full_circle()).is_full


# -- iterate --------------------------------------------------------------------


def test_iterate_zero_steps():
    a = random_arcset(random.Random(7))
    assert iterate(rotation_system(F(1, 4)), a, 0) == [(a, False)]


def test_iterate_quarter_rotation_orbit():
    # F^n({0}) of the one-map system is the single rotated point each step
    sets = [s for s, _ in iterate(rotation_system(F(1, 4)), point_set([CirclePoint(0)]), 4)]
    assert [len(s.arcs) for s in sets] == [1, 1, 1, 1, 1]
    assert sets[1] == point_set([CirclePoint(F(1, 4))])
    assert sets[4] == point_set([CirclePoint(0)])


def test_iterate_theorem2_is_nested(theorem2):
    sets = [s for s, _ in iterate(theorem2, point_set([CirclePoint(0)]), 6)]
    for a, b in zip(sets, sets[1:]):
        assert is_subset(a, b)


def test_iterate_resource_cap(theorem2):
    policy = PrecisionPolicy(arc_cap=4)
    # at a later step
    start = point_set([CirclePoint(F(1, 3))])
    assert iterate(theorem2, start, 0, policy) == [(start, False)]
    with pytest.raises(ResourceCapError):
        iterate(theorem2, start, 8, policy)
    # at step 0: the start set itself is over the cap
    start = point_set([CirclePoint(F(k, 8)) for k in range(5)])
    with pytest.raises(ResourceCapError, match="arc count 5 exceeds cap 4"):
        iterate(theorem2, start, 0, policy)


def test_iterate_records_coarsening(theorem2):
    policy = PrecisionPolicy(coarsen=F(1, 16))
    steps = iterate(theorem2, point_set([CirclePoint(F(1, 3))]), 8, policy)
    assert any(coarse for _, coarse in steps)


def test_orbit_consumers_agree(theorem2):
    # iterate, covering_time and attractor_probe all consume the one orbit
    # engine; each applies only its own stopping rule to the same steps
    policy = PrecisionPolicy(denominator_limit=2**10, coarsen=F(1, 256))
    u = Arc(CirclePoint(F(1, 3)), F(1, 64))
    steps = iterate(theorem2, normalize([u]), 16, policy)
    covered = [s.is_full or gap_radius(s) <= policy.coarsen for s, _ in steps]
    assert covering_time(theorem2, u, 16, policy) == covered.index(True)
    report = attractor_probe(
        theorem2, normalize([u]), budget=16, tol=F(1, 64), policy=policy
    )
    n = len(report.steps)
    assert n < len(steps)
    assert list(report.steps) == [
        Step(k, gap_radius(s), len(s.arcs), coarse) for k, (s, coarse) in enumerate(steps[:n])
    ]


@pytest.mark.parametrize(
    "field, value",
    [("denominator_limit", 0), ("coarsen", F(-1)), ("coarsen", F(0)),
     ("arc_cap", 0), ("denominator_limit", 2.5), ("denominator_limit", True),
     ("coarsen", 0.001), ("coarsen", "1/2"), ("arc_cap", 2.5),
     ("arc_cap", True)],
)
def test_precision_policy_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        PrecisionPolicy(**{field: value})


def test_probe_policy_orbits_match_rounding_every_segment(theorem1, theorem2):
    # the reference step rounds both ends of every image segment, then
    # normalises; in exact mode it is the plain Hutchinson operator
    limit, eta = PROBE_POLICY.denominator_limit, PROBE_POLICY.coarsen
    flags = set()
    for system in (theorem1.forward, theorem1.backward):
        for k in (3, 10):
            start = point_set([CirclePoint(F(k, 16))])
            current, _ = next(orbit(system, start, PROBE_POLICY))
            for _ in range(10):
                rounded = [
                    (grid_rounded(lo, limit), grid_rounded(hi, limit))
                    for lo, hi in _images(system.generators, current)
                ]
                expected = _normalize_segments_flagged(rounded, eta)
                step = hutchinson_step(system, current, PROBE_POLICY)
                assert step == expected
                flags.add(step[1])
                current = step[0]
    assert flags == {False, True}
    current = point_set([CirclePoint(F(1, 3))])
    for _ in range(8):
        step = hutchinson_step(theorem2, current, EXACT)
        assert step == (hutchinson(theorem2, current), False)
        current = step[0]


def test_steps_normalise_through_the_ifs_binding_and_step_zero_through_circle(
    theorem2, monkeypatch
):
    # In exact mode a tracer wraps both bindings and counts what goes through
    # ifs's as step work, so step 0 must not go through it, nor a step around
    # it.  Under a limit every step runs on grid ints: it calls neither
    # binding, nor image_segment.
    start = point_set([CirclePoint(F(1, 3))])
    calls = {"ifs": 0, "circle": 0}
    for name, module in (("ifs", ifs), ("circle", circle)):
        real = module._normalize_segments_flagged

        def counted(raw, fill_eta=None, real=real, name=name):
            calls[name] += 1
            return real(raw, fill_eta)

        monkeypatch.setattr(module, "_normalize_segments_flagged", counted)
    steps = orbit(theorem2, start, EXACT)
    next(steps)
    assert calls == {"ifs": 0, "circle": 1}
    next(steps)
    next(steps)
    assert calls == {"ifs": 2, "circle": 1}

    def image_segment(self, a):
        raise AssertionError("a limited step called image_segment")

    monkeypatch.setattr(PLHomeo, "image_segment", image_segment)
    calls.update(ifs=0, circle=0)
    steps = orbit(theorem2, start, PROBE_POLICY)
    for _ in range(3):
        next(steps)
    assert calls == {"ifs": 0, "circle": 0}


def test_limited_step_rejects_a_set_off_the_grid(theorem1):
    # orbit rounds step 0, so only a set from elsewhere can be off the grid
    for start in (F(1, 3), F(1, 2**17)):
        off = point_set([CirclePoint(start)])
        with pytest.raises(ValueError, match=f"{start}.*off the grid"):
            hutchinson_step(theorem1.forward, off, PROBE_POLICY)
    off = normalize([Arc(CirclePoint(F(1, 4)), F(1, 3))])
    with pytest.raises(ValueError, match="off the grid"):
        hutchinson_step(theorem1.forward, off, PROBE_POLICY)
    on = point_set([CirclePoint(F(3, 2**16))])
    hutchinson_step(theorem1.forward, on, PROBE_POLICY)  # on the grid: no error


# -- orbit_density_probe ------------------------------------------------------------


def test_orbit_of_identity_is_nowhere_dense():
    report = orbit_density_probe(
        IFS((PLHomeo.identity(),)), CirclePoint(F(1, 3)), depth=4, epsilon=F(1, 8)
    )
    assert not report.verdict
    assert report.largest_gap == 1
    assert report.orbit_size == 1


def test_orbit_of_rational_rotation_is_grid():
    report = orbit_density_probe(
        rotation_system(F(13, 21)), CirclePoint(0), depth=21, epsilon=F(1, 21)
    )
    assert report.verdict
    assert report.orbit_size == 21
    assert report.largest_gap == F(1, 21)


def test_orbit_theorem2_dense_at_depth_12(theorem2):
    report = orbit_density_probe(
        theorem2, CirclePoint(F(1, 3)), depth=12, epsilon=F(1, 64)
    )
    assert report.verdict
    assert report.largest_gap < F(1, 32)


def test_orbit_density_probe_point_cap(theorem2):
    with pytest.raises(ResourceCapError, match="orbit exceeded 10 points"):
        orbit_density_probe(
            theorem2, CirclePoint(F(1, 3)), depth=6, epsilon=F(1, 64), max_points=10
        )


def test_orbit_density_probe_stops_at_the_first_point_past_the_cap(theorem2, monkeypatch):
    # fresh says, per evaluation in order, whether it found a new point: the
    # cap must fire at the first new point past it, not at the end of a level.
    lift = PLHomeo._lift_ints
    seen = {F(1, 3)}
    fresh = []

    def counting(self, p, q):
        num, den = lift(self, p, q)
        value = F(num, den) % 1
        fresh.append(value not in seen)
        seen.add(value)
        return num, den

    monkeypatch.setattr(PLHomeo, "_lift_ints", counting)
    with pytest.raises(ResourceCapError, match="orbit exceeded 50 points"):
        orbit_density_probe(
            theorem2, CirclePoint(F(1, 3)), depth=6, epsilon=F(1, 64), max_points=50
        )
    assert len(seen) == 51
    assert fresh[-1]
    assert len(fresh) <= len(theorem2.generators) * 50


def fraction_orbit_density(system, x, depth, epsilon):
    """The probe as a plain Fraction BFS: the oracle for the int-pair one."""
    visited = {x.value}
    frontier = [x]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for g in system.generators:
                q = g(p)
                if q.value not in visited:
                    visited.add(q.value)
                    nxt.append(q)
        frontier = nxt
        if not frontier:
            break
    pts = sorted(visited)
    largest = max((pts[(i + 1) % len(pts)] - pts[i]) % 1 for i in range(len(pts)))
    if len(pts) == 1:
        largest = F(1)
    return len(pts), largest, largest < 2 * epsilon


@st.composite
def orbit_cases(draw):
    """(system name or rotation angle, start, depth): starts from random_point
    with denominators up to 2**20, depths 1..6."""
    which = draw(
        st.one_of(
            st.sampled_from(["theorem2", "theorem1-forward", "theorem1-backward"]),
            st.fractions(min_value=0, max_value=1, max_denominator=64),
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    start = random_point(rng, draw(st.integers(1, 2**20)))
    return which, start, draw(st.integers(1, 6))


@given(orbit_cases())
@example(("theorem1-forward", CirclePoint(F(1, 3)), 6))
def test_orbit_density_probe_matches_fraction_oracle(theorem2, theorem1, case):
    which, start, depth = case
    system = {
        "theorem2": theorem2,
        "theorem1-forward": theorem1.forward,
        "theorem1-backward": theorem1.backward,
    }.get(which) or rotation_system(which)
    report = orbit_density_probe(system, start, depth, F(1, 64))
    assert (report.orbit_size, report.largest_gap, report.verdict) == (
        fraction_orbit_density(system, start, depth, F(1, 64))
    )


@pytest.mark.parametrize(
    "alpha, start",
    [
        (F(1, 4), F(0)),  # orbit {0, 1/4}: the start is the smallest point
        (F(3, 4), F(1, 2)),  # orbit {1/4, 1/2}: it is not
    ],
)
def test_orbit_density_probe_largest_gap_wraps_around(alpha, start):
    # the gap from the last point to the first + 1 is 3/4, the largest
    report = orbit_density_probe(rotation_system(alpha), CirclePoint(start), 1, F(1, 8))
    assert report.orbit_size == 2
    assert report.largest_gap == F(3, 4)
    assert (report.orbit_size, report.largest_gap, report.verdict) == (
        fraction_orbit_density(rotation_system(alpha), CirclePoint(start), 1, F(1, 8))
    )


# -- invariance_check ----------------------------------------------------------------


def test_full_circle_invariant(theorem2):
    report = invariance_check(theorem2, full_circle(), F(0))
    assert report.ok
    assert all(d == 0 for d in report.distances)


def test_periodic_orbit_invariant():
    k = point_set([CirclePoint(0), CirclePoint(F(1, 3)), CirclePoint(F(2, 3))])
    assert invariance_check(rotation_system(F(1, 3)), k, F(0)).ok


def test_denjoy_k_invariant_up_to_residual(theorem1):
    approx = theorem1.approximants[0]
    system = IFS((approx.g,))
    exact = invariance_check(system, approx.k_set, F(0))
    assert not exact.ok  # the stage ladder leaks at the last gap
    residual = max(exact.distances)
    assert residual < F(1, 64)
    assert invariance_check(system, approx.k_set, residual).ok


# -- attractor_probe ------------------------------------------------------------------


def test_attractor_full_circle_converges_immediately(theorem2):
    report = attractor_probe(theorem2, full_circle(), budget=4, tol=F(1, 256))
    assert report.verdict == VERDICT_CONVERGED
    assert report.converged_at == 0


def test_attractor_half_rotation_never_converges():
    report = attractor_probe(
        rotation_system(F(1, 2)), point_set([CirclePoint(0)]), budget=8, tol=F(1, 256)
    )
    assert report.verdict == VERDICT_NOT_CONVERGED
    assert report.converged_at is None
    # the singleton hops between 0 and 1/2; its gap radius stays 1/2
    assert all(step.gap_radius == F(1, 2) for step in report.steps)


def test_attractor_theorem2_converges(theorem2):
    report = attractor_probe(
        theorem2, point_set([CirclePoint(F(1, 3))]), budget=64, tol=F(1, 256)
    )
    assert report.verdict == VERDICT_CONVERGED
    radii = [step.gap_radius for step in report.steps]
    assert all(b <= a for a, b in zip(radii, radii[1:]))


# -- operator properties ---------------------------------------------------------------


def test_hutchinson_monotone(theorem2):
    rng = random.Random(11)
    for _ in range(16):
        a = random_arcset(rng)
        b = union(a, random_arcset(rng))
        assert is_subset(hutchinson(theorem2, a), hutchinson(theorem2, b))


def test_hutchinson_union_morphism(theorem2):
    rng = random.Random(13)
    for _ in range(16):
        a, b = random_arcset(rng), random_arcset(rng)
        assert hutchinson(theorem2, union(a, b)) == union(
            hutchinson(theorem2, a), hutchinson(theorem2, b)
        )


def test_inverse_duality(theorem2):
    # F(F_-(A)) contains A because f(f^-1(A)) = A for each generator
    rng = random.Random(17)
    inv = inverse_system(theorem2)
    for _ in range(16):
        a = random_arcset(rng)
        assert is_subset(a, hutchinson(theorem2, hutchinson(inv, a)))


def test_singleton_coherence(theorem2, theorem1):
    rng = random.Random(19)
    for system in (theorem2, theorem1.forward):
        for _ in range(8):
            x = random_point(rng)
            expected = point_set([g(x) for g in system.generators])
            assert hutchinson(system, point_set([x])) == expected


def test_nested_iteration_gap_radius_monotone(theorem2):
    radii = [gap_radius(s) for s, _ in iterate(theorem2, point_set([CirclePoint(F(2, 7))]), 10)]
    assert all(b <= a for a, b in zip(radii, radii[1:]))
