"""Iterated function systems of circle homeomorphisms and their Hutchinson
operators on arc unions: iteration, word maps, and dynamical probes
(invariance, orbit density, attractor convergence).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .circle import (
    ArcSet,
    CirclePoint,
    _normalize_segments_flagged,
    gap_radius,
    hausdorff,
    normalize_segments,
    rational_str,
    round_arcset,
    round_segments,
)
from .homeo import PLHomeo, Word


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

    def to_obj(self) -> dict:
        return {
            "label": self.label,
            "generators": [g.to_obj() for g in self.generators],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "IFS":
        return cls(
            tuple(PLHomeo.from_obj(g) for g in obj["generators"]),
            obj.get("label", ""),
        )


def inverse_system(system: IFS) -> IFS:
    """The IFS of inverses, in the same generator order."""
    return IFS(
        tuple(g.invert() for g in system.generators),
        label=f"{system.label}-inverse" if system.label else "inverse",
    )


@dataclass(frozen=True)
class PrecisionPolicy:
    """Optional per-step precision and size controls for iteration.

    Exact arithmetic is the default (all fields off).  denominator_limit
    rounds endpoints to denominators <= D after each step; coarsen_eta fills
    gaps shorter than eta; arc_cap aborts (ResourceCapError) when a step
    produces more arcs than the cap while coarsening is off.
    """

    denominator_limit: int | None = None
    coarsen_eta: Fraction | None = None
    arc_cap: int = 100_000

    def apply(self, a: ArcSet) -> tuple[ArcSet, bool]:
        """Round and coarsen a in one normalization pass; returns
        (processed set, whether coarsening changed it)."""
        return self._capped(
            *round_arcset(a, self.denominator_limit, self.coarsen_eta)
        )

    def _capped(self, a: ArcSet, coarsened: bool) -> tuple[ArcSet, bool]:
        if self.coarsen_eta is None and len(a.arcs) > self.arc_cap:
            raise ResourceCapError(
                f"arc count {len(a.arcs)} exceeds cap {self.arc_cap}"
            )
        return a, coarsened

    def to_obj(self) -> dict:
        return {
            "denominator_limit": self.denominator_limit,
            "coarsen": None if self.coarsen_eta is None else rational_str(self.coarsen_eta),
            "arc_cap": self.arc_cap,
        }


EXACT = PrecisionPolicy()

# Shipped default for probe runs on the finite-stage Denjoy systems, whose
# singleton orbits grow too fast for exact arithmetic at depth 32+.  The
# endpoint grid keeps rounding noise (<= 2^-16 per step) and the coarsening
# slack (2^-11) far below every probe tolerance in use.
PROBE_POLICY = PrecisionPolicy(
    denominator_limit=2**16, coarsen_eta=Fraction(1, 2**11)
)


def _images(generators: Sequence[PLHomeo], a: ArcSet):
    """Lift segments g(arc) for each generator g (outer) and arc of A."""
    return (g.image_segment(piece) for g in generators for piece in a.arcs)


def hutchinson(system: IFS, a: ArcSet) -> ArcSet:
    """F(A): the canonical union of generator images of A."""
    return normalize_segments(_images(system.generators, a))


def hutchinson_step(
    system: IFS, a: ArcSet, policy: PrecisionPolicy
) -> tuple[ArcSet, bool]:
    """One Hutchinson step with the policy's rounding and coarsening applied
    in the same normalization pass; returns (F(A) processed, coarsened?)."""
    return policy._capped(
        *_normalize_segments_flagged(
            round_segments(_images(system.generators, a), policy.denominator_limit),
            policy.coarsen_eta,
        )
    )


def orbit(
    system: IFS, start: ArcSet, policy: PrecisionPolicy = EXACT
) -> Iterator[tuple[ArcSet, bool]]:
    """Yield (F^n(A) processed, coarsened?) for n = 0, 1, 2, ...

    Step 0 is the policy applied to A; every later step is one
    hutchinson_step.  Only the current set is held, and a step runs only
    when it is pulled, so each consumer keeps its own stopping rule.
    """
    current, coarse = policy.apply(start)
    while True:
        yield current, coarse
        current, coarse = hutchinson_step(system, current, policy)


@dataclass(frozen=True)
class Trajectory:
    """The sets [A, F(A), ..., F^n(A)] with per-step bookkeeping."""

    sets: tuple[ArcSet, ...]
    arc_counts: tuple[int, ...]
    coarsened: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, i: int) -> ArcSet:
        return self.sets[i]


def iterate(
    system: IFS,
    a: ArcSet,
    n: int,
    policy: PrecisionPolicy = EXACT,
) -> Trajectory:
    """Iterate the Hutchinson operator n times, keeping the full history."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    sets, coarsened = zip(*islice(orbit(system, a, policy), n + 1))
    return Trajectory(sets, tuple(len(s.arcs) for s in sets), coarsened)


def word_map(system: IFS, word: Word | Sequence[int], x: CirclePoint) -> CirclePoint:
    """Apply f_{w_n} o ... o f_{w_1} to x (first symbol acts first)."""
    k = len(system.generators)
    for s in word:
        if not 1 <= s <= k:
            raise ValueError(f"word symbol {s} out of range 1..{k}")
        x = system.generators[s - 1](x)
    return x


@dataclass(frozen=True)
class MinimalityReport:
    """Result of a breadth-first orbit density probe."""

    base_point: CirclePoint
    depth: int
    epsilon: Fraction
    verdict: bool
    largest_gap: Fraction
    orbit_size: int

    def to_obj(self) -> dict:
        return {
            "base_point": rational_str(self.base_point.value),
            "depth": self.depth,
            "epsilon": rational_str(self.epsilon),
            "verdict": self.verdict,
            "largest_gap": rational_str(self.largest_gap),
            "orbit_size": self.orbit_size,
        }


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
    revisit (at length > m) could contribute.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
        if len(visited) > max_points:
            raise ResourceCapError(f"orbit exceeded {max_points} points")
        if not frontier:
            break
    pts = sorted(visited)
    largest = max(
        ((pts[(i + 1) % len(pts)] - pts[i]) % 1 for i in range(len(pts))),
        default=Fraction(1),
    )
    if len(pts) == 1:
        largest = Fraction(1)
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

    def to_obj(self) -> dict:
        return {
            "tol": rational_str(self.tol),
            "distances": [rational_str(d) for d in self.distances],
            "ok": self.ok,
        }


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


@dataclass(frozen=True)
class ConvergenceReport:
    """gap_radius trajectory of F^n(K) against a convergence tolerance."""

    steps: tuple[tuple[int, Fraction], ...]
    arc_counts: tuple[int, ...]
    coarsened: tuple[bool, ...]
    tol: Fraction
    budget: int
    verdict: str
    converged_at: int | None

    def to_obj(self) -> dict:
        return {
            "tol": rational_str(self.tol),
            "budget": self.budget,
            "verdict": self.verdict,
            "converged_at": self.converged_at,
            "steps": [
                {
                    "n": n,
                    "gap_radius": rational_str(r),
                    "arc_count": self.arc_counts[i],
                    "coarsened": self.coarsened[i],
                }
                for i, (n, r) in enumerate(self.steps)
            ],
        }


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
    steps, arc_counts, coarsened = [], [], []
    converged_at = None
    for n, (current, coarse) in enumerate(
        islice(orbit(system, k_set, policy), budget + 1)
    ):
        radius = gap_radius(current)
        steps.append((n, radius))
        arc_counts.append(len(current.arcs))
        coarsened.append(coarse)
        if radius <= tol:
            converged_at = n
            break
    return ConvergenceReport(
        steps=tuple(steps),
        arc_counts=tuple(arc_counts),
        coarsened=tuple(coarsened),
        tol=tol,
        budget=budget,
        verdict=VERDICT_CONVERGED if converged_at is not None else VERDICT_NOT_CONVERGED,
        converged_at=converged_at,
    )
