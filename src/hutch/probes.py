"""Empirical evidence for equicontinuity and sensitivity.

The central object is the dynamical pseudo-metric
d_F(x1, x2) = sup_n d_H(F^n({x1}), F^n({x2})), truncated at a recorded depth
N, hence always a lower bound of the true value and non-decreasing in N.
The supremum here includes the n = 0 term, so d_F >= circle_dist.

Sampling is deterministic (stratified grids), so every report is exactly
reproducible.  Verdicts are empirical lower bounds and heuristics, never
proofs: sensitivity quantifies over all open sets and cannot be decided at
desk scale.  The sensitivity probe's covering_bound, 1/2 - r with
r = gap_radius(F^n({center})) at the covering time n, is a heuristic: covering
proves a d_F-diameter of at least r only (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, zip_longest
from typing import Iterator, NamedTuple, Sequence

from .circle import (
    Arc,
    ArcSet,
    CirclePoint,
    gap_radius,
    hausdorff,
    normalize,
    point_set,
)
from .ifs import EXACT, IFS, PrecisionPolicy, orbit
from .ifs import hutchinson_step  # unused here; perfbench/tracer.py patches it


def dF_estimate(
    system: IFS,
    x1: CirclePoint,
    x2: CirclePoint,
    truncation: int,
    policy: PrecisionPolicy = EXACT,
) -> Fraction:
    """max over 0 <= n <= truncation of d_H(F^n({x1}), F^n({x2}))."""
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    return _df_over_orbits(
        _singleton_orbit(system, x1, truncation, policy),
        _singleton_orbit(system, x2, truncation, policy),
    )[0]


def _singleton_orbit(
    system: IFS, x: CirclePoint, truncation: int, policy: PrecisionPolicy
) -> Iterator[tuple[ArcSet, bool]]:
    """The orbit steps of {x} up to F^truncation({x}), ending after a full
    circle: the full circle is a fixed point of F for homeomorphisms, so
    later steps repeat it."""
    for n, step in enumerate(orbit(system, point_set([x]), policy)):
        yield step
        if n == truncation or step[0].is_full:
            return


def _df_over_orbits(steps_a, steps_b) -> tuple[Fraction, bool]:
    """max of stepwise Hausdorff distances over two parallel orbits, and
    whether coarsening changed any step consumed.

    Once one orbit ends (its set went full and stays there), remaining
    steps compare against the full circle; once both end, the remaining
    terms are zero.
    """
    best = Fraction(0)
    coarsened = False
    a = b = None
    for step_a, step_b in zip_longest(steps_a, steps_b):
        if step_a is not None:
            a, coarse = step_a
            coarsened |= coarse
        if step_b is not None:
            b, coarse = step_b
            coarsened |= coarse
        if (step_a is None or step_b is None) and a.is_full and b.is_full:
            break
        best = max(best, hausdorff(a, b))
        if best == Fraction(1, 2):
            break  # metric maximum; later terms cannot exceed it
    return best, coarsened


class ModulusEntry(NamedTuple):
    delta: Fraction
    modulus: Fraction


@dataclass(frozen=True)
class ModulusReport:
    """Sampled modulus of continuity of id: (X, d) -> (X, d_F) at a point.

    entries pair each delta with the max truncated d_F over all sampled y
    with d(x, y) <= delta; the sample pool is shared across deltas so the
    modulus is non-decreasing in delta by construction.
    """

    base_point: CirclePoint
    truncation: int
    sample_count: int
    entries: tuple[ModulusEntry, ...]
    coarsened: bool = False


def equicontinuity_probe(
    system: IFS,
    x: CirclePoint,
    delta_grid: Sequence[Fraction],
    truncation: int,
    samples_per_delta: int = 4,
    policy: PrecisionPolicy = EXACT,
) -> ModulusReport:
    """Estimate the d_F modulus of continuity at x over a decreasing grid of
    radii.

    For each delta the probe samples stratified offsets +-delta*k/q
    (q = ceil(m/2), so the extremes x +- delta are always included) and takes
    the max truncated d_F against x.  A modulus decreasing with delta is
    evidence that x is an equicontinuity point; a modulus bounded away from
    zero flags a sensitive point.
    """
    deltas = [Fraction(d) for d in delta_grid]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("delta grid must be positive")
    if deltas[0] > Fraction(1, 2):
        raise ValueError("delta grid exceeds the metric diameter 1/2")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta grid must be strictly decreasing")
    if samples_per_delta < 2:
        raise ValueError("need at least 2 samples per delta")

    q = (samples_per_delta + 1) // 2
    offsets: set[Fraction] = set()
    for d in deltas:
        for k in range(1, q + 1):
            step = d * k / q
            offsets.add(step)
            offsets.add(-step)

    base = list(_singleton_orbit(system, x, truncation, policy))
    coarsened = any(coarse for _, coarse in base)
    df_by_offset = {}
    for off in sorted(offsets):
        df_by_offset[off], coarse = _df_over_orbits(
            iter(base), _singleton_orbit(system, x + off, truncation, policy)
        )
        coarsened |= coarse
    entries = tuple(
        ModulusEntry(d, max(v for off, v in df_by_offset.items() if abs(off) <= d))
        for d in deltas
    )
    return ModulusReport(
        base_point=x,
        truncation=truncation,
        sample_count=len(offsets),
        entries=entries,
        coarsened=coarsened,
    )


def covering_time(
    system: IFS,
    u: Arc,
    budget: int,
    policy: PrecisionPolicy = EXACT,
) -> int | None:
    """Least n <= budget with F^n(U) the full circle, or None.

    U is handled through its closure (for homeomorphisms the image of the
    closure is the closure of the image, so covering of the closed arc and of
    the open arc agree up to finitely many points).  When coarsening is
    active, covering means gap_radius <= the coarsening slack instead of
    exact fullness.
    """
    if u.length <= 0:
        raise ValueError("U must have positive length")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    slack = policy.coarsen if policy.coarsen is not None else Fraction(0)

    steps = islice(orbit(system, normalize([u]), policy), budget + 1)
    for n, (current, _) in enumerate(steps):
        if current.is_full or gap_radius(current) <= slack:
            return n
    return None


@dataclass(frozen=True)
class SensitivityEntry:
    center: CirclePoint
    length: Fraction
    diameter_estimate: Fraction
    covering_time: int | None
    covering_bound: Fraction | None
    evidence: Fraction


VERDICT_SENSITIVE = "sensitive at tested scales"
VERDICT_NOT_SENSITIVE = "not sensitive at tested scales"


@dataclass(frozen=True)
class SensitivityReport:
    """d_F-diameter evidence for sensitivity over a family of test arcs.

    Each arc carries two separate signals: the sampled-pair diameter
    estimate, and (when the arc covers within budget) the covering bound
    1/2 - r, r = gap_radius(F^n(center)) at the covering time n.  The
    covering bound is a heuristic; the sound value covering gives is r
    (ROADMAP item 1).  The overall lower bound is the min over arcs of the
    larger signal.
    """

    lengths: tuple[Fraction, ...]
    truncation: int
    entries: tuple[SensitivityEntry, ...]
    lower_bound: Fraction
    verdict: str
    coarsened: bool = False


def sensitivity_probe(
    system: IFS,
    lengths: Sequence[Fraction],
    centers: Sequence[CirclePoint],
    truncation: int,
    policy: PrecisionPolicy = EXACT,
) -> SensitivityReport:
    """Probe the d_F-diameter of arcs of the given lengths at the given
    centers.

    Per arc, the diameter is sampled over the endpoint/center pairs; when
    the arc covers within the truncation budget, the heuristic covering
    bound 1/2 - r, r = gap_radius(F^n({center})) at the covering time n, is
    taken as well, and the larger of the two is the arc's evidence.
    Covering proves a diameter of at least r only (ROADMAP item 1).  The
    verdict compares the overall lower bound against the tested scales.
    """
    lens = [Fraction(l) for l in lengths]
    if not lens or any(l <= 0 for l in lens):
        raise ValueError("arc lengths must be positive")
    if not centers:
        raise ValueError("need at least one center")

    # centers outermost: each center's orbit is stepped once, one at a time
    coarsened = False
    entries: list[SensitivityEntry | None] = [None] * (len(lens) * len(centers))
    for j, center in enumerate(centers):
        center_steps = list(_singleton_orbit(system, center, truncation, policy))
        for i, length in enumerate(lens):
            u = Arc(center - length / 2, length)
            start_steps, end_steps = (
                list(_singleton_orbit(system, p, truncation, policy))
                for p in (u.start, u.end)
            )
            orbits = [start_steps, center_steps, end_steps]
            coarsened |= any(coarse for steps in orbits for _, coarse in steps)
            diameter = max(
                _df_over_orbits(iter(ta), iter(tb))[0]
                for k, ta in enumerate(orbits)
                for tb in orbits[k + 1 :]
            )
            cover_n = covering_time(system, u, truncation, policy)
            bound: Fraction | None = None
            if cover_n is not None:
                at_cover = center_steps[min(cover_n, len(center_steps) - 1)][0]
                bound = Fraction(1, 2) - gap_radius(at_cover)
            evidence = max(diameter, bound) if bound is not None else diameter
            entries[i * len(centers) + j] = SensitivityEntry(
                center=center,
                length=length,
                diameter_estimate=diameter,
                covering_time=cover_n,
                covering_bound=bound,
                evidence=evidence,
            )
    lower = min(e.evidence for e in entries)
    verdict = VERDICT_SENSITIVE if lower > 2 * max(lens) else VERDICT_NOT_SENSITIVE
    return SensitivityReport(
        lengths=tuple(lens),
        truncation=truncation,
        entries=tuple(entries),
        lower_bound=lower,
        verdict=verdict,
        coarsened=coarsened,
    )
