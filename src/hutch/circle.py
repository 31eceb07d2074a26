"""Exact geometry on the circle S^1 = R/Z.

Points are exact rationals in [0, 1), sets are canonical finite unions of
closed arcs, and distances (arc-length metric, Hausdorff metric) are computed
exactly.  Everything here is immutable and pure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and exact 'p/q' strings to Fraction.

    Decimal and float syntax is rejected: only exact rationals travel
    through this library.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        s = value.strip()
        if any(c in s for c in ".eE"):
            raise ValueError(f"expected exact rational 'p/q', got {value!r}")
        return Fraction(s)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_str(value: Fraction) -> str:
    """Render a rational losslessly ('3/4', '0', '2')."""
    return str(value)


@dataclass(frozen=True, order=True)
class CirclePoint:
    """A point of S^1, stored as the canonical representative in [0, 1)."""

    value: Fraction

    def __post_init__(self) -> None:
        v = self.value
        if not isinstance(v, Fraction):
            v = frac(v)
        if not 0 <= v.numerator < v.denominator:
            v = v % 1
        object.__setattr__(self, "value", v)

    def __add__(self, delta: RationalLike) -> "CirclePoint":
        return CirclePoint(self.value + frac(delta))

    def __sub__(self, delta: RationalLike) -> "CirclePoint":
        return CirclePoint(self.value - frac(delta))

    def __repr__(self) -> str:
        return f"CirclePoint({self.value})"


def circle_dist(a: CirclePoint, b: CirclePoint) -> Fraction:
    """Arc-length distance on S^1 (circumference 1, maximum 1/2)."""
    d = abs(a.value - b.value)
    return min(d, 1 - d)


@dataclass(frozen=True)
class Arc:
    """Closed arc {start + t : 0 <= t <= length}.

    length 0 is the singleton {start}; length 1 is the whole circle.
    """

    start: CirclePoint
    length: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", frac(self.length))
        if not 0 <= self.length <= 1:
            raise ValueError(f"arc length must lie in [0, 1], got {self.length}")

    @property
    def end(self) -> CirclePoint:
        return self.start + self.length

    @property
    def midpoint(self) -> CirclePoint:
        return self.start + self.length / 2

    def contains(self, p: CirclePoint) -> bool:
        if self.length == 1:
            return True
        return (p.value - self.start.value) % 1 <= self.length

    def __repr__(self) -> str:
        return f"Arc({self.start.value}, len={self.length})"


def arc(start: RationalLike, length: RationalLike) -> Arc:
    """Shorthand constructor taking raw rationals."""
    return Arc(CirclePoint(frac(start)), frac(length))


FULL_LENGTH = Fraction(1)


@dataclass(frozen=True)
class ArcSet:
    """Canonical non-empty finite union of closed arcs.

    Canonical form: arcs sorted by start, pairwise disjoint closures (no two
    arcs touch), and the full circle stored as the single arc of length 1.
    Construct through :func:`normalize`; the constructor only verifies
    canonicality.
    """

    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        arcs = self.arcs
        if not arcs:
            raise ValueError("empty set not in hyperspace")
        if len(arcs) == 1:
            return
        if any(a.length == 1 for a in arcs):
            raise ValueError("full circle must be a single arc")
        for i in range(len(arcs) - 1):
            if not arcs[i].start < arcs[i + 1].start:
                raise ValueError("arcs must be sorted by start")
            if arcs[i].start.value + arcs[i].length >= arcs[i + 1].start.value:
                raise ValueError("arcs must have disjoint closures")
        last = arcs[-1]
        if last.start.value + last.length >= 1 + arcs[0].start.value:
            raise ValueError("arcs must have disjoint closures (wraparound)")

    @property
    def _starts(self) -> list[Fraction]:
        cached = self.__dict__.get("_starts_cache")
        if cached is None:
            cached = [a.start.value for a in self.arcs]
            object.__setattr__(self, "_starts_cache", cached)
        return cached

    @property
    def _starts_float(self) -> list[float]:
        cached = self.__dict__.get("_starts_float_cache")
        if cached is None:
            cached = [float(v) for v in self._starts]
            object.__setattr__(self, "_starts_float_cache", cached)
        return cached

    def _gap_index(self, p: CirclePoint) -> int:
        """Index i such that p lies in arcs[i] or in the gap after it,
        exactly (float bisect is only a hint)."""
        starts = self._starts
        n = len(starts)
        if p.value < starts[0]:
            return n - 1  # before the first start: cyclically after the last arc
        i = bisect_right(self._starts_float, float(p.value)) - 1
        if i < 0:
            i = 0
        while i + 1 < n and p.value >= starts[i + 1]:
            i += 1
        while i > 0 and p.value < starts[i]:
            i -= 1
        return i

    @property
    def is_full(self) -> bool:
        return self.arcs[0].length == 1

    @property
    def measure(self) -> Fraction:
        return sum((a.length for a in self.arcs), Fraction(0))

    def contains(self, p: CirclePoint) -> bool:
        return self._locate(p) is not None

    __contains__ = contains

    def _locate(self, p: CirclePoint) -> Arc | None:
        """The unique arc containing p, or None."""
        arcs = self.arcs
        if arcs[0].length == 1:
            return arcs[0]
        i = self._gap_index(p)
        candidate = arcs[i]
        if candidate.contains(p):
            return candidate
        return None

    def point_distance(self, p: CirclePoint) -> Fraction:
        """min over x in the set of circle_dist(p, x), exactly."""
        arcs = self.arcs
        if arcs[0].length == 1:
            return Fraction(0)
        i = self._gap_index(p)
        before = arcs[i]
        if before.contains(p):
            return Fraction(0)
        after = arcs[(i + 1) % len(arcs)]
        return min(circle_dist(p, before.end), circle_dist(p, after.start))

    def __repr__(self) -> str:
        return f"ArcSet({list(self.arcs)!r})"


def full_circle() -> ArcSet:
    return ArcSet((Arc(CirclePoint(Fraction(0)), FULL_LENGTH),))


def point_set(points: Iterable[CirclePoint]) -> ArcSet:
    """The ArcSet consisting of the given points (as zero-length arcs)."""
    return normalize([Arc(p, Fraction(0)) for p in points])


def _trusted_arcset(arcs: tuple[Arc, ...]) -> ArcSet:
    """Build an ArcSet from arcs known to be canonical, skipping validation.

    Internal: only normalization routines may call this.
    """
    out = object.__new__(ArcSet)
    object.__setattr__(out, "arcs", arcs)
    return out


def normalize_segments(
    raw: Iterable[tuple[Fraction, Fraction]],
    fill_eta: Fraction | None = None,
) -> ArcSet:
    """Canonicalize lift-line segments (start, end), 0 <= end - start <= 1,
    start any rational, into an ArcSet.

    Merges overlapping and touching arcs, optionally also fills gaps shorter
    than fill_eta, and collapses total coverage to the full circle.
    """
    return _normalize_segments_flagged(raw, fill_eta)[0]


def _normalize_segments_flagged(
    raw: Iterable[tuple[Fraction, Fraction]],
    fill_eta: Fraction | None = None,
) -> tuple[ArcSet, bool]:
    """normalize_segments plus a flag: True iff gap-filling (coarsening)
    actually changed the result."""
    # Unroll to closed segments [lo, hi] inside [0, 1], splitting wraparounds.
    segments: list[tuple[Fraction, Fraction]] = []
    for lo, hi in raw:
        if hi - lo >= 1:
            return full_circle(), False
        if not 0 <= lo.numerator < lo.denominator:
            shift = lo.__floor__()
            lo, hi = lo - shift, hi - shift
        if hi <= 1:
            segments.append((lo, hi))
        else:
            segments.append((lo, Fraction(1)))
            segments.append((Fraction(0), hi - 1))
    if not segments:
        raise ValueError("empty set not in hyperspace")
    segments.sort(key=_segment_sort_key)

    filled = False
    merged: list[list[Fraction]] = [list(segments[0])]
    if fill_eta is None:
        for lo, hi in segments[1:]:
            tail = merged[-1]
            if lo <= tail[1]:
                if hi > tail[1]:
                    tail[1] = hi
            else:
                merged.append([lo, hi])
    else:
        for lo, hi in segments[1:]:
            tail = merged[-1]
            if lo <= tail[1]:
                if hi > tail[1]:
                    tail[1] = hi
            elif lo - tail[1] < fill_eta:
                filled = True
                if hi > tail[1]:
                    tail[1] = hi
            else:
                merged.append([lo, hi])

    if len(merged) == 1 and merged[0][0] == 0 and merged[0][1] == 1:
        return full_circle(), filled
    # Closed arcs meeting (or within the fill slack) across the point 0
    # merge into a single wrapped arc.
    if len(merged) > 1:
        wrap_gap = merged[0][0] + 1 - merged[-1][1]
        if wrap_gap <= 0 or (fill_eta is not None and wrap_gap < fill_eta):
            if wrap_gap > 0:
                filled = True
            first = merged.pop(0)
            merged[-1][1] = 1 + first[1]
    elif fill_eta is not None and merged[0][0] + 1 - merged[0][1] < fill_eta:
        return full_circle(), True

    return (
        _trusted_arcset(tuple(Arc(CirclePoint(lo), hi - lo) for lo, hi in merged)),
        filled,
    )


def _segment_sort_key(seg: Sequence[Fraction]) -> tuple[float, Fraction]:
    # Float first for speed; the exact value breaks float ties correctly.
    return (float(seg[0]), seg[0])


def normalize(raw: Sequence[Arc]) -> ArcSet:
    """Canonicalize a list of closed arcs into an ArcSet.

    Merges overlapping and touching arcs, collapses total coverage to the
    single full-circle arc, and sorts by start point.
    """
    if not raw:
        raise ValueError("empty set not in hyperspace")
    return normalize_segments(
        (a.start.value, a.start.value + a.length) for a in raw
    )


def union(a: ArcSet, b: ArcSet) -> ArcSet:
    return normalize(list(a.arcs) + list(b.arcs))


def complement_gaps(a: ArcSet) -> tuple[Arc, ...]:
    """The maximal open gaps of S^1 minus the set, sorted by start.

    Gaps are returned as Arc records; interpret them as open arcs.  Empty
    tuple iff the set is the full circle.
    """
    if a.is_full:
        return ()
    arcs = a.arcs
    gaps = []
    for i, cur in enumerate(arcs):
        nxt = arcs[(i + 1) % len(arcs)]
        start = cur.end
        length = (nxt.start.value - start.value) % 1
        if length == 0 and len(arcs) == 1:
            length = Fraction(1) - cur.length  # single arc: one gap around
        gaps.append(Arc(start, length))
    return tuple(sorted(gaps, key=lambda g: g.start))


def is_subset(a: ArcSet, b: ArcSet) -> bool:
    """True iff every arc of a is covered by b (connected arcs must land in
    one component of b)."""
    if b.is_full:
        return True
    if a.is_full:
        return False
    for piece in a.arcs:
        host = b._locate(piece.start)
        if host is None:
            return False
        offset = (piece.start.value - host.start.value) % 1
        if offset + piece.length > host.length:
            return False
    return True


def _directed_hausdorff(a: ArcSet, b: ArcSet) -> Fraction:
    """sup over x in a of dist(x, b).

    The sup is attained at an endpoint of a or at a gap midpoint of b lying
    inside a (the local maxima of the distance-to-b function).
    """
    if b.is_full:
        return Fraction(0)
    best = Fraction(0)
    for piece in a.arcs:
        best = max(best, b.point_distance(piece.start), b.point_distance(piece.end))
    for gap in complement_gaps(b):
        mid = gap.midpoint
        if a.contains(mid):
            best = max(best, gap.length / 2)
    return best


def hausdorff(a: ArcSet, b: ArcSet) -> Fraction:
    """Exact Hausdorff distance between two arc unions under circle_dist."""
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def gap_radius(a: ArcSet) -> Fraction:
    """Hausdorff distance to the full circle: half the largest gap length."""
    gaps = complement_gaps(a)
    if not gaps:
        return Fraction(0)
    return max(g.length for g in gaps) / 2


def round_segments(
    raw: Iterable[tuple[Fraction, Fraction]], max_denominator: int | None
) -> Iterator[tuple[Fraction, Fraction]]:
    """Round lift-line segments (lo, hi) to endpoints with denominator <=
    max_denominator; None passes them through unchanged.

    The one endpoint rule: lo is rounded, lengths 0 and 1 are kept exact,
    and hi is rounded, then clamped to lo so rounding never inverts a
    segment.
    """
    if max_denominator is None:
        yield from raw
        return
    for lo, hi in raw:
        length = hi - lo
        if lo.denominator > max_denominator:
            lo = lo.limit_denominator(max_denominator)
        if length == 0:
            hi = lo
        elif length == 1:
            hi = lo + 1
        else:
            if hi.denominator > max_denominator:
                hi = hi.limit_denominator(max_denominator)
            if hi < lo:
                hi = lo
        yield lo, hi


def round_arcset(
    a: ArcSet, max_denominator: int | None, fill_eta: Fraction | None
) -> tuple[ArcSet, bool]:
    """Re-canonicalize a with its endpoints rounded (round_segments) and its
    gaps shorter than fill_eta filled, in one normalization pass; the flag is
    True iff gap-filling changed the set."""
    return _normalize_segments_flagged(
        round_segments(
            ((p.start.value, p.start.value + p.length) for p in a.arcs),
            max_denominator,
        ),
        fill_eta,
    )


def arcset_to_obj(a: ArcSet) -> list[dict[str, str]]:
    return [
        {"start": rational_str(p.start.value), "length": rational_str(p.length)}
        for p in a.arcs
    ]


def arcset_from_obj(obj: Sequence[dict[str, str]]) -> ArcSet:
    return normalize([arc(item["start"], item["length"]) for item in obj])
