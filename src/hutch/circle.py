"""Exact geometry on the circle S^1 = R/Z.

Points are exact rationals in [0, 1), sets are canonical finite unions of
closed arcs, and distances (arc-length metric, Hausdorff metric) are computed
exactly.  Everything here is immutable and pure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and exact 'p/q' strings to Fraction.

    Decimal and float syntax is rejected, and so are booleans (an int
    subclass): only exact rationals travel through this library.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        s = value.strip()
        if any(c in s for c in ".eE"):
            raise ValueError(f"expected exact rational 'p/q', got {value!r}")
        return Fraction(s)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


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
_start_value = attrgetter("start.value")


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
    def is_full(self) -> bool:
        return self.arcs[0].length == 1

    @property
    def measure(self) -> Fraction:
        return sum((a.length for a in self.arcs), Fraction(0))

    def contains(self, p: CirclePoint) -> bool:
        # The last arc starting at or before p; index -1 wraps to the last
        # arc, which is where a point before the first start lies.
        arcs = self.arcs
        return arcs[bisect_right(arcs, p.value, key=_start_value) - 1].contains(p)

    __contains__ = contains

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


def _trusted_arc(start: Fraction, length: Fraction) -> Arc:
    """Build Arc(CirclePoint(start), length) for 0 <= start < 1 and
    0 <= length <= 1, skipping their checks.  Internal, as above.  Set as
    __init__ does: writing to __dict__ would give each object a full dict."""
    point = object.__new__(CirclePoint)
    object.__setattr__(point, "value", start)
    out = object.__new__(Arc)
    object.__setattr__(out, "start", point)
    object.__setattr__(out, "length", length)
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
    # Gaps shorter than en / ed are filled; None fills none, as 0 does.
    en, ed = (0, 1) if fill_eta is None else (fill_eta.numerator, fill_eta.denominator)
    merged, filled = _merged_runs(raw, en, ed)

    # Closed arcs meeting (or within the fill slack) across 0 merge into one
    # wrapped arc; a lone arc meeting itself there is the full circle.
    fn, fd, gn, gd = merged[0]
    sn, sd, tn, td = merged[-1]
    wrap = (fn + fd) * td - tn * fd  # first start + 1 - last end, over fd td
    if wrap <= 0 or wrap * ed < en * fd * td:
        filled = filled or wrap > 0
        if len(merged) == 1:
            return full_circle(), filled
        merged[-1] = (sn, sd, gn + gd, gd)
        del merged[0]

    arcs = tuple(
        _trusted_arc(Fraction(sn, sd), Fraction(tn * sd - sn * td, td * sd))
        for sn, sd, tn, td in merged
    )
    return _trusted_arcset(arcs), filled


def _exact_key(dmax: int) -> Callable[[tuple[int, ...]], int]:
    """An exact integer sort key for tuples that start with a rational
    (numerator, denominator), denominator at most dmax: distinct such values
    differ by at least 1/dmax**2 > 2**-k, so their floors at scale 2**k
    differ too, and equal values get equal keys."""
    k = 2 * dmax.bit_length()
    return lambda t: (t[0] << k) // t[1]


def _merged_runs(
    raw: Iterable[tuple[Fraction, Fraction]],
    en: int,
    ed: int,
    limit: int | None = None,
) -> tuple[list[tuple[int, int, int, int]], bool]:
    """Segments (lo, hi) shifted into [0, 1), split at 1, sorted, and merged
    where they meet or lie less than en / ed apart: the runs (start n, d, end
    n, d) and whether a gap was closed; a length >= 1 gives the run [0, 1].

    With a denominator limit D a closed gap of at most 1/D counts only if
    its two ends stay apart once rounded (_limit_denominator), as a gap
    filled after rounding would: see RoundedRuns."""
    # Unroll to closed segments [lo, hi] inside [0, 1], splitting wraparounds,
    # as reduced int pairs; values compare by cross-multiplication.
    segments: list[tuple[int, int, int, int]] = []
    dmax = 1
    for lo, hi in raw:
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        if hn * ld - ln * hd >= ld * hd:  # length >= 1
            return [(0, 1, 1, 1)], False
        if not 0 <= ln < ld:
            shift = ln // ld
            ln, hn = ln - shift * ld, hn - shift * hd
        if ld > dmax:
            dmax = ld
        if hn <= hd:
            segments.append((ln, ld, hn, hd))
        else:
            segments.append((ln, ld, 1, 1))
            segments.append((0, 1, hn - hd, hd))
    if not segments:
        raise ValueError("empty set not in hyperspace")
    segments.sort(key=_exact_key(dmax))

    filled = False
    merged: list[tuple[int, int, int, int]] = []
    sn, sd, tn, td = segments[0]  # the run being merged, [s, t]
    for ln, ld, hn, hd in segments:
        gap = ln * td - tn * ld
        if gap > 0:
            if gap * ed >= en * ld * td:
                merged.append((sn, sd, tn, td))
                sn, sd, tn, td = ln, ld, hn, hd
                continue
            if not filled:
                if limit is None or gap * limit > ld * td:
                    filled = True
                else:
                    # a gap of at most 1/D: do its ends round apart?
                    an, ad = _limit_denominator(tn, td, limit)
                    bn, bd = _limit_denominator(ln, ld, limit)
                    filled = an * bd < bn * ad
        if hn * td > tn * hd:
            tn, td = hn, hd
    merged.append((sn, sd, tn, td))
    return merged, filled


class RoundedRuns:
    """The runs of the union of lift-line segments inside [0, 1], joined
    across the gaps that rounding cannot reopen, with their ends rounded
    (_limit_denominator), made once iteration starts; filled then says
    whether a gap so joined is filled.  Normalized with fill_eta, with that
    flag or-ed in, they give the set and flag that rounding each end of
    each segment and then normalizing gives.  With no limit (None) the
    segments pass through as they are, and filled stays False.

    The rule is monotone and commutes with integer shifts, so the exact
    runs round to the runs of the rounded segments, in order, and 0 and 1
    round to themselves.  It moves a point by at most 1/(2D), D the limit,
    so a gap g between exact runs rounds to within 1/D of g: if
    g + 1/D < fill_eta, the rounded runs touch or the fill closes the gap,
    either way one run, so the gap is merged before rounding.  It is filled
    for certain if g > 1/D; a gap of at most 1/D is filled iff its ends
    round apart.  The other gaps are left to the normaliser, on rounded ends.
    """

    def __init__(
        self,
        raw: Iterable[tuple[Fraction, Fraction]],
        max_denominator: int | None,
        fill_eta: Fraction | None,
    ) -> None:
        self.raw = raw
        self.max_denominator = max_denominator
        self.fill_eta = fill_eta
        self.filled = False

    def __iter__(self) -> Iterator[tuple[Fraction, Fraction]]:
        d, eta = self.max_denominator, self.fill_eta
        if d is None:
            return iter(self.raw)
        en, ed = (0, 1) if eta is None else (eta.numerator, eta.denominator)
        # merge the gaps shorter than fill_eta - 1/D
        merged, self.filled = _merged_runs(self.raw, en * d - ed, ed * d, d)
        return (
            (
                Fraction(*_limit_denominator(sn, sd, d)),
                Fraction(*_limit_denominator(tn, td, d)),
            )
            for sn, sd, tn, td in merged
        )


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
    """True iff a is contained in b: the sup over a of the distance to b
    (the sweep behind hausdorff) is zero, b being closed."""
    if b.is_full:
        return True
    src = None if a.is_full else _endpoint_table(a)
    return _sup_distance(src, _endpoint_table(b))[0] == 0


def _endpoint_table(a: ArcSet) -> list[tuple[int, int, int, int]]:
    """(start numerator, start denominator, end numerator, end denominator)
    per arc of a non-full set, end = start + length unreduced: sorted by
    start, and only the last arc may end past 1."""
    table = []
    for piece in a.arcs:
        s, length = piece.start.value, piece.length
        sn, sd = s.numerator, s.denominator
        ln, ld = length.numerator, length.denominator
        table.append((sn, sd, sn * ld + ln * sd, sd * ld))
    return table


def _sup_distance(
    src: list[tuple[int, int, int, int]] | None,
    dst: list[tuple[int, int, int, int]],
) -> tuple[int, int]:
    """sup over x in src of the distance from x to dst, as an unreduced
    (numerator, denominator) pair; src None is the full circle.

    One merge sweep: the circle is cut at dst's first arc start c, a point of
    dst, so splitting src there changes no distance, and dst's gaps become
    the open intervals (end_i, start_{i+1}) of the window [c, c + 1].  On a
    gap of midpoint M the distance to dst is the distance to the nearer gap
    edge, so its sup over src is half the gap if src covers M, else that of
    the covered point nearest M: the last src end before M or the first src
    start after it.  Values are compared by cross-multiplication.
    """
    cn, cd = dst[0][0], dst[0][1]
    wn = cn + cd  # the window ends at c + 1 = wn / cd
    if src is None:
        pieces = [(cn, cd, wn, cd)]
    else:
        # src rotated to the window: arcs starting before c move up by 1
        lo = 0
        while lo < len(src) and src[lo][0] * cd < cn * src[lo][1]:
            lo += 1
        pieces = src[lo:]
        pieces.extend((sn + sd, sd, en + ed, ed) for sn, sd, en, ed in src[:lo])
        sn, sd, en, ed = pieces[-1]
        if en * cd > wn * ed:  # the arc straddling the cut: split it there
            pieces[-1] = (sn, sd, wn, cd)
            pieces.insert(0, (cn, cd, en - ed, ed))

    best_n, best_d = 0, 1
    count = len(pieces)
    j = 0
    last = len(dst) - 1
    for i, (_, _, gn, gd) in enumerate(dst):
        # the gap (g, h) after arc i
        if i < last:
            hn, hd = dst[i + 1][0], dst[i + 1][1]
        else:
            hn, hd = wn, cd
        # pieces ending before g touch no later gap either
        while j < count and pieces[j][2] * gd < gn * pieces[j][3]:
            j += 1
        mn, md = gn * hd + hn * gd, 2 * gd * hd  # the midpoint M
        val_n, val_d = 0, 1
        for k in range(j, count):
            sn, sd, en, ed = pieces[k]
            if sn * hd > hn * sd:
                break  # starts past the gap
            if sn * md <= mn * sd:
                if en * md >= mn * ed:  # covers M
                    val_n, val_d = hn * gd - gn * hd, md
                    break
                # ends before M; later pieces end later
                val_n, val_d = en * gd - gn * ed, ed * gd
            else:
                # the first piece starting after M
                rn, rd = hn * sd - sn * hd, hd * sd
                if rn * val_d > val_n * rd:
                    val_n, val_d = rn, rd
                break
        if val_n * best_d > best_n * val_d:
            best_n, best_d = val_n, val_d
    return best_n, best_d


def hausdorff(a: ArcSet, b: ArcSet) -> Fraction:
    """Exact Hausdorff distance between two arc unions under circle_dist."""
    if a.is_full:
        return gap_radius(b)
    if b.is_full:
        return gap_radius(a)
    ta, tb = _endpoint_table(a), _endpoint_table(b)
    an, ad = _sup_distance(ta, tb)
    bn, bd = _sup_distance(tb, ta)
    if bn * ad > an * bd:
        an, ad = bn, bd
    return Fraction(an, ad)


def gap_radius(a: ArcSet) -> Fraction:
    """Hausdorff distance to the full circle: half the largest gap length."""
    if a.is_full:
        return Fraction(0)
    num, den = _sup_distance(None, _endpoint_table(a))
    return Fraction(num, den)


def _limit_denominator(n: int, d: int, max_denominator: int) -> tuple[int, int]:
    """Fraction(n, d).limit_denominator(max_denominator) for reduced n/d, as
    a reduced (numerator, denominator) pair: n/d itself if d is within the
    limit, else the closer of the best lower and upper approximations from
    the continued fraction of n/d, the convergent p1/q1 on a tie."""
    if d <= max_denominator:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (max_denominator - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, both sides times d q1 q2
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


def round_arcset(
    a: ArcSet, max_denominator: int | None, fill_eta: Fraction | None
) -> tuple[ArcSet, bool]:
    """Re-canonicalize a with its endpoints rounded (RoundedRuns) and its
    gaps shorter than fill_eta filled, in one normalization pass; the flag is
    True iff gap-filling changed the set."""
    runs = RoundedRuns(
        ((p.start.value, p.start.value + p.length) for p in a.arcs),
        max_denominator,
        fill_eta,
    )
    out, filled = _normalize_segments_flagged(runs, fill_eta)
    return out, filled or runs.filled

