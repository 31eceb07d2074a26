"""Iterated function systems of circle homeomorphisms and their Hutchinson
operators on arc unions: iteration and dynamical probes (invariance, orbit
density, attractor convergence).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .circle import (
    ArcSet,
    CirclePoint,
    _exact_key,
    _grid_arcset,
    _normalize_segments_flagged,
    gap_radius,
    hausdorff,
    normalize_segments,
    round_arcset,
)
from .homeo import PLHomeo


class ResourceCapError(RuntimeError):
    """Arc count exceeded the configured cap with coarsening disabled."""


@dataclass(frozen=True)
class IFS:
    """Finite ordered family of PL circle homeomorphisms."""

    generators: tuple[PLHomeo, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("an IFS needs at least one generator")

    def __len__(self) -> int:
        return len(self.generators)


def inverse_system(system: IFS) -> IFS:
    """The IFS of inverses, in the same generator order."""
    return IFS(
        tuple(g.invert() for g in system.generators),
        label=f"{system.label}-inverse" if system.label else "inverse",
    )


@dataclass(frozen=True)
class PrecisionPolicy:
    """Optional per-step precision and size controls for iteration.

    Exact arithmetic is the default (all fields off).  denominator_limit D
    keeps every set of an orbit on the grid (1/D)Z, rounding each image end
    to the nearest grid point (the upper one on a tie); coarsen fills gaps
    shorter than it; arc_cap makes orbit abort (ResourceCapError) at a set
    of more arcs than the cap while coarsening is off.  Values of the wrong
    type (D and cap not int, eta not Fraction) or out of range (D < 1,
    eta <= 0, cap < 1) raise ValueError naming the field.
    """

    denominator_limit: int | None = None
    coarsen: Fraction | None = None
    arc_cap: int = 100_000

    def __post_init__(self) -> None:
        limit, eta, cap = self.denominator_limit, self.coarsen, self.arc_cap
        if limit is not None and (type(limit) is not int or limit < 1):
            raise ValueError(f"denominator_limit must be None or an int >= 1, got {limit}")
        if eta is not None and (not isinstance(eta, Fraction) or eta <= 0):
            raise ValueError(f"coarsen must be None or a Fraction > 0, got {eta}")
        if type(cap) is not int or cap < 1:
            raise ValueError(f"arc_cap must be an int >= 1, got {cap}")


EXACT = PrecisionPolicy()

# Shipped default for probe runs on the finite-stage Denjoy systems, whose
# singleton orbits grow too fast for exact arithmetic at depth 32+.  Its
# orbits stay on the dyadic grid 2^-16, which keeps rounding noise (<= 2^-17
# per endpoint and step) and the coarsening slack (2^-11) far below every
# probe tolerance in use.
PROBE_POLICY = PrecisionPolicy(denominator_limit=2**16, coarsen=Fraction(1, 2**11))


def _images(generators: Sequence[PLHomeo], a: ArcSet):
    """Lift segments g(arc) for each generator g (outer) and arc of A."""
    return (g.image_segment(piece) for g in generators for piece in a.arcs)


def _grid_images(generators: Sequence[PLHomeo], a: ArcSet, limit: int):
    """Grid-unit segments g(arc), rounded by grid lifts, for each arc of A
    and generator g; an arc off (1/limit)Z raises ValueError."""
    lifts = [g._grid_lift(limit) for g in generators]
    for piece in a.arcs:
        s, length = piece.start.value, piece.length
        if limit % s.denominator or limit % length.denominator:
            raise ValueError(f"{piece} is off the grid (1/{limit})Z")
        k = s.numerator * (limit // s.denominator)
        e = k + length.numerator * (limit // length.denominator)
        for lift in lifts:
            lo = lift(k)
            yield lo, lo if k == e else lift(e)


def hutchinson(system: IFS, a: ArcSet) -> ArcSet:
    """F(A): the canonical union of generator images of A."""
    return normalize_segments(_images(system.generators, a))


def hutchinson_step(
    system: IFS, a: ArcSet, policy: PrecisionPolicy
) -> tuple[ArcSet, bool]:
    """One Hutchinson step with the policy's rounding and coarsening applied
    in the same normalization pass; returns (F(A) processed, coarsened?).
    Under a limit D it runs in grid units; A must lie on (1/D)Z, as orbit
    keeps it.  The arc cap is orbit's to check."""
    limit, eta = policy.denominator_limit, policy.coarsen
    if limit is None:
        # ifs's own binding, not circle's: tracers count segments through it as step work
        return _normalize_segments_flagged(_images(system.generators, a), eta)
    return _grid_arcset(_grid_images(system.generators, a, limit), limit, eta)


def orbit(
    system: IFS, start: ArcSet, policy: PrecisionPolicy = EXACT
) -> Iterator[tuple[ArcSet, bool]]:
    """Yield (F^n(A) processed, coarsened?) for n = 0, 1, 2, ...

    Step 0 is A rounded and coarsened (round_arcset); every later step is
    one hutchinson_step.  Each set is checked against the arc cap before it
    is yielded.  Only the current set is held, and a step runs only when it
    is pulled, so each consumer keeps its own stopping rule.
    """
    limit, eta, cap = policy.denominator_limit, policy.coarsen, policy.arc_cap
    current, coarse = round_arcset(start, limit, eta)
    while True:
        if eta is None and len(current.arcs) > cap:
            raise ResourceCapError(f"arc count {len(current.arcs)} exceeds cap {cap}")
        yield current, coarse
        current, coarse = hutchinson_step(system, current, policy)


def iterate(
    system: IFS, a: ArcSet, n: int, policy: PrecisionPolicy = EXACT
) -> list[tuple[ArcSet, bool]]:
    """The first n + 1 steps (F^k(A) processed, coarsened?) of orbit."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    return list(islice(orbit(system, a, policy), n + 1))


@dataclass(frozen=True)
class MinimalityReport:
    """Result of a breadth-first orbit density probe."""

    base_point: CirclePoint
    depth: int
    epsilon: Fraction
    verdict: bool
    largest_gap: Fraction
    orbit_size: int


def orbit_density_probe(
    system: IFS,
    x: CirclePoint,
    depth: int,
    epsilon: Fraction,
    max_points: int = 2_000_000,
) -> MinimalityReport:
    """Enumerate the semigroup orbit of x up to the given word length and
    check whether it forms an epsilon-net of the circle.

    BFS with exact-point deduplication: a point reached at word length m is
    expanded once there, which already enumerates every continuation a later
    revisit (at length > m) could contribute.  Points are reduced
    (numerator, denominator) pairs in [0, 1); the cap is checked as each new
    point is added.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    start = (x.value.numerator, x.value.denominator)
    visited = {start}
    frontier = [start]
    lifts = [g._lift_ints for g in system.generators]
    for _ in range(depth):
        nxt = []
        for p, q in frontier:
            for lift in lifts:
                num, den = lift(p, q)
                num %= den
                c = gcd(num, den)
                point = (num // c, den // c)
                if point not in visited:
                    if len(visited) >= max_points:
                        raise ResourceCapError(f"orbit exceeded {max_points} points")
                    visited.add(point)
                    nxt.append(point)
        frontier = nxt
        if not frontier:
            break
    pts = sorted(visited, key=_exact_key(max(q for _, q in visited)))
    # The largest gap by cross-multiplication, starting from the one that
    # wraps around, from the last point to the first + 1.
    (fn, fd), (ln, ld) = pts[0], pts[-1]
    best_n, best_d = (fn + fd) * ld - ln * fd, fd * ld
    for (pn, pd), (qn, qd) in zip(pts, pts[1:]):
        gap = qn * pd - pn * qd
        if gap * best_d > best_n * qd * pd:
            best_n, best_d = gap, qd * pd
    largest = Fraction(best_n, best_d)
    return MinimalityReport(
        base_point=x,
        depth=depth,
        epsilon=epsilon,
        verdict=largest < 2 * epsilon,
        largest_gap=largest,
        orbit_size=len(pts),
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Per-generator Hausdorff displacement of a candidate invariant set."""

    tol: Fraction
    distances: tuple[Fraction, ...]
    ok: bool


def invariance_check(system: IFS, k_set: ArcSet, tol: Fraction) -> InvarianceReport:
    """True iff max over generators of d_H(f(K), K) <= tol (tol = 0 demands
    exact invariance)."""
    distances = tuple(
        hausdorff(normalize_segments(_images((g,), k_set)), k_set)
        for g in system.generators
    )
    return InvarianceReport(tol=tol, distances=distances, ok=max(distances) <= tol)


VERDICT_CONVERGED = "converged-below-tol"
VERDICT_NOT_CONVERGED = "not-converged-within-budget"


class Step(NamedTuple):
    """One set of a Hutchinson orbit: its index, gap radius and arc count,
    and whether coarsening changed it."""

    n: int
    gap_radius: Fraction
    arc_count: int
    coarsened: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """gap_radius trajectory of F^n(K) against a convergence tolerance."""

    tol: Fraction
    budget: int
    verdict: str
    converged_at: int | None
    steps: tuple[Step, ...]


def attractor_probe(
    system: IFS,
    k_set: ArcSet,
    budget: int,
    tol: Fraction,
    policy: PrecisionPolicy = EXACT,
) -> ConvergenceReport:
    """Iterate F on K recording gap_radius per step; converged when the
    radius falls to tol or below within the budget."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    steps = []
    converged_at = None
    for n, (current, coarse) in enumerate(
        islice(orbit(system, k_set, policy), budget + 1)
    ):
        radius = gap_radius(current)
        steps.append(Step(n, radius, len(current.arcs), coarse))
        if radius <= tol:
            converged_at = n
            break
    return ConvergenceReport(
        tol=tol,
        budget=budget,
        verdict=VERDICT_CONVERGED if converged_at is not None else VERDICT_NOT_CONVERGED,
        converged_at=converged_at,
        steps=tuple(steps),
    )
