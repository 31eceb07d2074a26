"""Executable builds of the two example systems.

theorem2_ifs: a rotation plus three explicit PL maps whose graphs, together
with their inverses, contain the diagonal as a relation, making every arc set
grow under both the forward and the backward Hutchinson operator.

denjoy_approximant / blowup_map / build_theorem1: a finite-stage Denjoy-type
construction.  A rational rotation orbit is blown up into geometrically
decaying gaps, producing a PL map g that carries gap n affinely onto gap n+1
and shadows the rescaled rotation elsewhere, with invariant-up-to-residual
arc-union K_N.  A blowup homeomorphism h fixes the midpoint of a chosen gap
with contracting one-sided slopes and pushes the gap's start endpoint inward,
so h(K_N) strictly contains K_N.  The symmetric system {g, g^-1} plus h is
the forward system; its inverse family is the backward one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .circle import (
    Arc,
    ArcSet,
    CirclePoint,
    RationalLike,
    complement_gaps,
    frac,
    normalize,
    is_subset,
    union,
)
from .homeo import PLHomeo
from .ifs import IFS, inverse_system


class ConstructionError(ValueError):
    """A construction invariant failed; never returned silently."""


# -- the explicit four-generator system ---------------------------------------


def theorem2_ifs(alpha: RationalLike) -> IFS:
    """Rotation by alpha plus the three explicit PL maps.

    The PL generators interpolate exactly through their defining graph
    points; alpha must lie strictly between 0 and 1.
    """
    a = frac(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {a}")
    f1 = PLHomeo.rotation(a)
    f2 = PLHomeo.from_graph(
        [(0, 0), (Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 2)), (1, 1)]
    )
    f3 = PLHomeo.from_graph(
        [(0, 0), (Fraction(5, 8), Fraction(5, 8)), (Fraction(6, 8), Fraction(7, 8)), (1, 1)]
    )
    f4 = PLHomeo.from_graph(
        [
            (0, 0),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(5, 8), Fraction(3, 4)),
            (Fraction(7, 8), Fraction(7, 8)),
            (1, 1),
        ]
    )
    return IFS((f1, f2, f3, f4), label="theorem2")


@dataclass(frozen=True)
class DiagonalReport:
    """Whether the union of generator fixed sets covers the circle."""

    covered: bool
    fixed_sets: tuple[ArcSet | None, ...]


def diagonal_containment_check(system: IFS) -> DiagonalReport:
    """True iff every circle point is fixed by some generator.

    When true, A is a subset of F(A) for every arc set A (each point sits in
    its fixer's image), and the same holds for the inverse system since fixed
    sets are preserved under inversion.
    """
    fixed = tuple(g.fixed_points() for g in system.generators)
    covering = [s for s in fixed if s is not None]
    if not covering:
        return DiagonalReport(covered=False, fixed_sets=fixed)
    total = covering[0]
    for s in covering[1:]:
        total = union(total, s)
    return DiagonalReport(covered=total.is_full, fixed_sets=fixed)


# -- finite-stage Denjoy approximant -------------------------------------------


@dataclass(frozen=True)
class DenjoyApproximant:
    """Finite-stage blowup of a rational rotation orbit.

    gaps maps orbit index n (|n| <= stage) to the inserted closed gap arc;
    k_set is the complement of the open gaps (total measure 1 - gap_mass).
    The map g carries gap n onto gap n+1 affinely for n < stage and is affine
    on every complementary arc.
    """

    alpha: Fraction
    gap_ratio: Fraction
    gap_mass: Fraction
    stage: int
    base_point: CirclePoint
    g: PLHomeo
    gaps: tuple[tuple[int, Arc], ...]
    k_set: ArcSet

    def gap(self, index: int) -> Arc:
        for n, a in self.gaps:
            if n == index:
                return a
        raise KeyError(f"no gap with orbit index {index}")


def denjoy_approximant(
    alpha: RationalLike,
    gap_ratio: RationalLike,
    gap_mass: RationalLike,
    stage: int,
    base_point: CirclePoint | RationalLike = 0,
) -> DenjoyApproximant:
    """Insert a gap of length proportional to gap_ratio^|n| at each orbit
    point base_point + n*alpha (|n| <= stage), rescaling the rest of the
    circle uniformly, and build the PL map that shifts the gap ladder."""
    a = frac(alpha)
    lam = frac(gap_ratio)
    s = frac(gap_mass)
    if not 0 < lam < 1:
        raise ValueError(f"gap ratio must lie in (0, 1), got {lam}")
    if not 0 < s < 1:
        raise ValueError(f"gap mass must lie in (0, 1), got {s}")
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if not 0 < a < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {a}")
    if a.denominator <= 2 * stage + 1:
        raise ValueError(
            f"alpha denominator {a.denominator} must exceed 2*stage+1 = {2 * stage + 1}"
        )
    x0 = base_point if isinstance(base_point, CirclePoint) else CirclePoint(frac(base_point))

    indices = range(-stage, stage + 1)
    orbit = {n: (x0.value + n * a) % 1 for n in indices}
    if len(set(orbit.values())) != len(orbit):
        raise ValueError("orbit points are not distinct")

    weight = sum(lam ** abs(n) for n in indices)
    lengths = {n: s * lam ** abs(n) / weight for n in indices}

    def position(n: int) -> Fraction:
        """Blown-up start of gap n: rescaled base point plus the mass of the
        gaps inserted before it."""
        t = orbit[n]
        inserted = sum((lengths[m] for m in indices if orbit[m] < t), Fraction(0))
        return (1 - s) * t + inserted

    u = {n: position(n) for n in indices}
    v = {n: u[n] + lengths[n] for n in indices}

    breakpoints = []
    for n in range(-stage, stage):
        breakpoints.append((CirclePoint(u[n]), CirclePoint(u[n + 1])))
        breakpoints.append((CirclePoint(v[n]), CirclePoint(v[n + 1])))
    g = PLHomeo(tuple(sorted(breakpoints, key=lambda q: q[0])))

    gap_arcs = tuple((n, Arc(CirclePoint(u[n]), lengths[n])) for n in indices)
    gaps_set = normalize([arc for _, arc in gap_arcs])
    k_set = normalize(list(complement_gaps(gaps_set)))

    built = DenjoyApproximant(
        alpha=a,
        gap_ratio=lam,
        gap_mass=s,
        stage=stage,
        base_point=x0,
        g=g,
        gaps=gap_arcs,
        k_set=k_set,
    )
    if k_set.measure != 1 - s:
        raise ConstructionError("complement measure mismatch")
    for n in range(-stage, stage):
        if g.image_arc(built.gap(n)) != built.gap(n + 1):
            raise ConstructionError(f"gap {n} does not map onto gap {n + 1}")
    return built


# -- blowup homeomorphism -------------------------------------------------------


@dataclass(frozen=True)
class BlowupMap:
    """Homeomorphism h with an attracting fixed point p inside a chosen gap
    of K_N and h(K_N) strictly containing K_N."""

    h: PLHomeo
    fixed_point: CirclePoint
    target_gap: Arc
    gap_index: int
    sigma: Fraction
    support: Arc  # h is the identity outside this closed arc


def blowup_map(
    approximant: DenjoyApproximant,
    gap_index: int = 0,
    sigma: RationalLike = Fraction(1, 2),
) -> BlowupMap:
    """Build the blowup homeomorphism for the chosen gap.

    h fixes the gap midpoint p with one-sided slopes sigma < 1, pushes the
    gap's start endpoint inward by (1 - sigma)/2 of the gap length, expands
    the K arc adjacent to that endpoint accordingly, and is the identity
    elsewhere.  All invariants (fixed point, attraction, strict containment
    of K_N in h(K_N)) are checked here; failure raises ConstructionError.
    """
    sig = frac(sigma)
    if not 0 < sig < 1:
        raise ValueError(f"sigma must lie in (0, 1), got {sig}")
    gap = approximant.gap(gap_index)
    if gap.length <= 0:
        raise ValueError("target gap must have positive length")

    left_arc = next(
        (a for a in approximant.k_set.arcs if a.end == gap.start), None
    )
    if left_arc is None:
        raise ConstructionError("no complement arc ends at the gap start")

    # Lifted coordinates around the gap: support [t, v], kinks at u and p.
    u = Fraction(0)  # work relative to the gap start
    ell = gap.length
    p_rel = u + ell / 2
    v_rel = u + ell
    t_rel = u - left_arc.length
    m_rel = p_rel - sig * (p_rel - u)  # pushed image of the gap start
    r_rel = p_rel + (v_rel - p_rel) / 2
    r_img = p_rel + sig * (r_rel - p_rel)

    base = gap.start
    pts = tuple(
        (base + x, base + y)
        for x, y in [
            (t_rel, t_rel),
            (u, m_rel),
            (p_rel, p_rel),
            (r_rel, r_img),
            (v_rel, v_rel),
        ]
    )
    h = PLHomeo(pts)
    p = base + p_rel

    if h(p) != p:
        raise ConstructionError("blowup map does not fix the gap midpoint")
    if not h.is_attracting(p):
        raise ConstructionError("gap midpoint is not attracting")
    if approximant.k_set.contains(p):
        raise ConstructionError("fixed point must lie outside K_N")
    image = normalize([h.image_arc(a) for a in approximant.k_set.arcs])
    if not is_subset(approximant.k_set, image):
        raise ConstructionError("h(K_N) does not contain K_N")
    if not image.measure > approximant.k_set.measure:
        raise ConstructionError("h(K_N) does not strictly exceed K_N in measure")

    return BlowupMap(
        h=h,
        fixed_point=p,
        target_gap=gap,
        gap_index=gap_index,
        sigma=sig,
        support=Arc(base + t_rel, v_rel - t_rel),
    )


# -- assembled systems ----------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Params:
    """Shipped defaults for the finite-stage construction."""

    alpha: Fraction = Fraction(34, 55)
    gap_ratio: Fraction = Fraction(1, 2)
    gap_mass: Fraction = Fraction(1, 2)
    stage: int = 8
    sigma: Fraction = Fraction(1, 2)
    approximant_count: int = 2
    gap_index: int = 0


@dataclass(frozen=True)
class Theorem1System:
    params: Theorem1Params
    approximants: tuple[DenjoyApproximant, ...]
    blowup: BlowupMap
    forward: IFS
    backward: IFS


def build_theorem1(params: Theorem1Params = Theorem1Params()) -> Theorem1System:
    """Assemble the full default construction.

    Multiple approximants share alpha but interleave their gap structures:
    approximant i starts at i/c + i/(2*c*q) (c approximants, q = alpha's
    denominator), which spreads the dominant inserted gaps evenly around the
    circle and keeps every orbit grid off the others'.  Each approximant's
    complement then covers the others' dominant gaps, which is what makes
    the joint system mix; orbit density is still certified empirically per
    run, not by construction.
    """
    if params.approximant_count < 1:
        raise ValueError("need at least one approximant")
    q = params.alpha.denominator
    c = params.approximant_count
    approximants = tuple(
        denjoy_approximant(
            params.alpha,
            params.gap_ratio,
            params.gap_mass,
            params.stage,
            CirclePoint(Fraction(i, c) + Fraction(i, 2 * c * q)),
        )
        for i in range(c)
    )
    blow = blowup_map(approximants[0], params.gap_index, params.sigma)
    # the symmetric part {g, g^-1} of every approximant, then h
    gens = [m for d in approximants for m in (d.g, d.g.invert())] + [blow.h]
    forward = IFS(tuple(gens), label="theorem1-forward")
    backward = IFS(inverse_system(forward).generators, label="theorem1-backward")
    return Theorem1System(
        params=params,
        approximants=approximants,
        blowup=blow,
        forward=forward,
        backward=backward,
    )

