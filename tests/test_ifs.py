import random
from fractions import Fraction

import pytest

from hutch.circle import (
    Arc,
    CirclePoint,
    full_circle,
    gap_radius,
    is_subset,
    normalize,
    point_set,
    union,
)
from hutch.homeo import PLHomeo, Word
from hutch.ifs import (
    IFS,
    PrecisionPolicy,
    ResourceCapError,
    VERDICT_CONVERGED,
    VERDICT_NOT_CONVERGED,
    attractor_probe,
    hutchinson,
    invariance_check,
    inverse_system,
    iterate,
    orbit_density_probe,
    word_map,
)
from hutch.probes import covering_time
from conftest import ALPHA, random_arcset, random_point

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
    traj = iterate(rotation_system(F(1, 4)), a, 0)
    assert traj.sets == (a,)


def test_iterate_quarter_rotation_orbit():
    # F^n({0}) of the one-map system is the single rotated point each step
    traj = iterate(rotation_system(F(1, 4)), point_set([CirclePoint(0)]), 4)
    assert traj.arc_counts == (1, 1, 1, 1, 1)
    assert traj.sets[1] == point_set([CirclePoint(F(1, 4))])
    assert traj.sets[4] == point_set([CirclePoint(0)])


def test_iterate_theorem2_is_nested(theorem2):
    traj = iterate(theorem2, point_set([CirclePoint(0)]), 6)
    for a, b in zip(traj.sets, traj.sets[1:]):
        assert is_subset(a, b)


def test_iterate_resource_cap(theorem2):
    policy = PrecisionPolicy(arc_cap=4)
    with pytest.raises(ResourceCapError):
        iterate(theorem2, point_set([CirclePoint(F(1, 3))]), 8, policy)


def test_iterate_records_coarsening(theorem2):
    policy = PrecisionPolicy(coarsen_eta=F(1, 16))
    traj = iterate(theorem2, point_set([CirclePoint(F(1, 3))]), 8, policy)
    assert any(traj.coarsened)


def test_orbit_consumers_agree(theorem2):
    # iterate, covering_time and attractor_probe all consume the one orbit
    # engine; each applies only its own stopping rule to the same steps
    policy = PrecisionPolicy(denominator_limit=2**10, coarsen_eta=F(1, 256))
    u = Arc(CirclePoint(F(1, 3)), F(1, 64))
    traj = iterate(theorem2, normalize([u]), 16, policy)
    covered = [
        s.is_full or gap_radius(s) <= policy.coarsen_eta for s in traj.sets
    ]
    assert covering_time(theorem2, u, 16, policy) == covered.index(True)
    report = attractor_probe(
        theorem2, normalize([u]), budget=16, tol=F(1, 64), policy=policy
    )
    n = len(report.arc_counts)
    assert n < len(traj)
    assert report.arc_counts == traj.arc_counts[:n]
    assert report.coarsened == traj.coarsened[:n]


# -- word_map ---------------------------------------------------------------------


def test_empty_word_is_identity(theorem2):
    x = CirclePoint(F(2, 7))
    assert word_map(theorem2, Word(()), x) == x


def test_word_applies_first_symbol_first(theorem2):
    x = CirclePoint(F(5, 8))
    assert word_map(theorem2, Word((4, 3)), x) == CirclePoint(F(7, 8))
    assert word_map(theorem2, Word((3, 4)), x) == CirclePoint(F(3, 4))


def test_word_symbol_out_of_range(theorem2):
    with pytest.raises(ValueError, match="out of range"):
        word_map(theorem2, Word((5,)), CirclePoint(0))


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
    assert all(radius == F(1, 2) for _, radius in report.steps)


def test_attractor_theorem2_converges(theorem2):
    report = attractor_probe(
        theorem2, point_set([CirclePoint(F(1, 3))]), budget=64, tol=F(1, 256)
    )
    assert report.verdict == VERDICT_CONVERGED
    radii = [radius for _, radius in report.steps]
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
    traj = iterate(theorem2, point_set([CirclePoint(F(2, 7))]), 10)
    radii = [gap_radius(s) for s in traj.sets]
    assert all(b <= a for a, b in zip(radii, radii[1:]))
