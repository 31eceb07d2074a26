"""Exact orientation-preserving piecewise-linear circle homeomorphisms.

A map is stored by the breakpoints of its lift on [0, 1) (extended by
lift(x+1) = lift(x) + 1) plus a rotation offset.  Construction canonicalizes:
the offset is folded into the breakpoints when any exist, collinear
breakpoints are pruned, and validity (strictly increasing lift, degree one)
is checked.  After canonicalization, equality of the dataclass fields is
equality of the maps as functions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .circle import (
    Arc,
    ArcSet,
    CirclePoint,
    RationalLike,
    frac,
    full_circle,
    normalize,
)


class InvalidHomeoError(ValueError):
    """Breakpoint data does not describe an orientation-preserving
    degree-one circle homeomorphism."""


@dataclass(frozen=True)
class PLHomeo:
    """Orientation-preserving PL circle homeomorphism.

    breakpoints: ((x_j, y_j), ...) with x_j strictly increasing in [0, 1) and
    y_j the image points in [0, 1); offset: rotation amount, nonzero only for
    pure rotations (it is folded into the y_j otherwise).
    """

    breakpoints: tuple[tuple[CirclePoint, CirclePoint], ...] = ()
    offset: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        offset = frac(self.offset) % 1
        pts = [(x, y) for x, y in self.breakpoints]
        if pts and offset:
            pts = [(x, y + offset) for x, y in pts]
            offset = Fraction(0)
        pts.sort(key=lambda q: q[0])
        for i in range(len(pts) - 1):
            if pts[i][0] == pts[i + 1][0]:
                raise InvalidHomeoError(f"duplicate breakpoint x = {pts[i][0].value}")

        xs, ys = _lift_table(pts)
        slopes = [
            (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(pts))
        ]
        # Prune breakpoints where the incoming and outgoing slopes agree.
        kept = [
            pts[j]
            for j in range(len(pts))
            if slopes[j - 1] != slopes[j]  # j = 0 compares against the wrap slope
        ]
        if pts and not kept:
            # No true kink: the map is the rotation by y_0 - x_0.
            offset = (pts[0][1].value - pts[0][0].value) % 1
            pts = []
        elif len(kept) != len(pts):
            pts = kept
            xs, ys = _lift_table(pts)
            slopes = [
                (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(pts))
            ]
        object.__setattr__(self, "breakpoints", tuple(pts))
        object.__setattr__(self, "offset", offset)
        if pts:
            object.__setattr__(self, "_xs", xs)
            object.__setattr__(self, "_ys", ys)
            object.__setattr__(self, "_slopes", slopes)
            object.__setattr__(self, "_xs_float", [float(v) for v in xs])
            object.__setattr__(self, "_pieces", _piece_table(xs, ys, slopes))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def rotation(cls, alpha: RationalLike) -> "PLHomeo":
        return cls((), frac(alpha))

    @classmethod
    def identity(cls) -> "PLHomeo":
        return cls((), Fraction(0))

    @classmethod
    def from_graph(cls, points: Iterable[tuple[RationalLike, RationalLike]]) -> "PLHomeo":
        """Build from rational graph points; a trailing (1, 1) wrap point (or
        any point congruent mod 1 to an earlier one) is dropped."""
        seen: set[Fraction] = set()
        pts = []
        for x_raw, y_raw in points:
            x = CirclePoint(frac(x_raw))
            if x.value in seen:
                continue
            seen.add(x.value)
            pts.append((x, CirclePoint(frac(y_raw))))
        return cls(tuple(pts))

    # -- evaluation ----------------------------------------------------------

    def lift(self, x: Fraction) -> Fraction:
        """The canonical lift (the one sending [x_0, x_0+1) into
        [y_0, y_0+1)), evaluated at any rational."""
        num, den = self._lift_ints(x.numerator, x.denominator)
        return Fraction(num, den)

    def _lift_ints(self, p: int, q: int) -> tuple[int, int]:
        """lift(p/q) as an unreduced (numerator, denominator) pair, q > 0."""
        if not self.breakpoints:
            on, od = self.offset.numerator, self.offset.denominator
            return p * od + on * q, q * od
        pieces = self._pieces  # type: ignore[attr-defined]
        n = p // q
        r = p - n * q  # t = r/q in [0, 1)
        x0 = pieces[0]
        if r * x0[1] < x0[0] * q:
            r += q
            n -= 1
        # Float bisect as a hint, exact comparisons to fix the piece index.
        j = bisect_right(self._xs_float, r / q) - 1  # type: ignore[attr-defined]
        last = len(pieces) - 1
        if j < 0:
            j = 0
        elif j > last:
            j = last
        while j < last and r * pieces[j + 1][1] >= pieces[j + 1][0] * q:
            j += 1
        while j > 0 and r * pieces[j][1] < pieces[j][0] * q:
            j -= 1
        _, _, a, c, d = pieces[j]
        # a/d * t + c/d + n
        return a * r + (c + n * d) * q, d * q

    def _grid_lift(self, grid: int) -> Callable[[int], int]:
        """k -> _grid_point(*self._lift_ints(k, grid), grid), from a table of
        piece starts ceil(x_j grid)."""
        on, od = self.offset.numerator, self.offset.denominator
        pieces = self._pieces if self.breakpoints else [(0, 1, od, on, od)]  # rotation
        bounds = [-(-xn * grid // xd) for xn, xd, _, _, _ in pieces]
        table = [(2 * a, 2 * c * grid + d, 2 * d) for _, _, a, c, d in pieces]
        first = bounds[0]

        def lift(k: int) -> int:
            n, r = divmod(k, grid)
            if r < first:
                r += grid
                n -= 1
            a, c, d = table[bisect_right(bounds, r) - 1]
            return n * grid + (a * r + c) // d

        return lift

    def __call__(self, p: CirclePoint) -> CirclePoint:
        v = p.value
        num, den = self._lift_ints(v.numerator, v.denominator)
        return CirclePoint(Fraction(num % den, den))

    # -- algebra -------------------------------------------------------------

    def invert(self) -> "PLHomeo":
        if not self.breakpoints:
            return PLHomeo((), (-self.offset) % 1)
        flipped = sorted(((y, x) for x, y in self.breakpoints), key=lambda q: q[0])
        return PLHomeo(tuple(flipped))

    # -- geometry ------------------------------------------------------------

    def image_segment(self, a: Arc) -> tuple[Fraction, Fraction]:
        """Lift-line (start, end) of the image of a closed arc."""
        s, length = a.start.value, a.length
        p, q = s.numerator, s.denominator
        num, den = self._lift_ints(p, q)
        lo = Fraction(num, den)
        if length == 0:
            return (lo, lo)
        if length == 1:
            return (lo, lo + 1)
        ln, ld = length.numerator, length.denominator
        num, den = self._lift_ints(p * ld + ln * q, q * ld)
        return (lo, Fraction(num, den))

    def image_arc(self, a: Arc) -> Arc:
        """Image of a closed arc (an arc again, by orientation preservation)."""
        lo, hi = self.image_segment(a)
        return Arc(CirclePoint(lo), hi - lo)

    def fixed_points(self) -> ArcSet | None:
        """The exact set {x : f(x) = x}: a finite union of points and arcs
        (PL graphs meet the diagonal in segments), or None if empty."""
        if not self.breakpoints:
            return full_circle() if self.offset == 0 else None
        xs: list[Fraction] = self._xs  # type: ignore[attr-defined]
        ys: list[Fraction] = self._ys  # type: ignore[attr-defined]
        slopes: list[Fraction] = self._slopes  # type: ignore[attr-defined]
        pieces: list[Arc] = []
        for j in range(len(slopes)):
            pa = ys[j] - xs[j]
            pb = ys[j + 1] - xs[j + 1]
            lo, hi = min(pa, pb), max(pa, pb)
            n = lo.__ceil__()
            while n <= hi:
                if pa == pb:
                    if pa == n:
                        pieces.append(Arc(CirclePoint(xs[j]), xs[j + 1] - xs[j]))
                else:
                    t = xs[j] + (n - pa) / (slopes[j] - 1)
                    if xs[j] <= t <= xs[j + 1]:
                        pieces.append(Arc(CirclePoint(t), Fraction(0)))
                n += 1
        if not pieces:
            return None
        return normalize(pieces)

    def one_sided_slopes(self, p: CirclePoint) -> tuple[Fraction, Fraction]:
        """(left slope, right slope) of the lift at p."""
        if not self.breakpoints:
            return (Fraction(1), Fraction(1))
        xs: list[Fraction] = self._xs  # type: ignore[attr-defined]
        slopes: list[Fraction] = self._slopes  # type: ignore[attr-defined]
        t = p.value
        if t < xs[0]:
            t += 1
        j = bisect_right(xs, t) - 1
        right = slopes[j]
        left = slopes[j - 1] if t == xs[j] else slopes[j]
        return (left, right)

    def is_attracting(self, p: CirclePoint) -> bool:
        """PL criterion for local attraction at a fixed point p: both
        one-sided slopes < 1.  Raises if p is not fixed."""
        if self(p) != p:
            raise ValueError(f"{p!r} is not a fixed point")
        left, right = self.one_sided_slopes(p)
        return left < 1 and right < 1


def _lift_table(
    pts: Sequence[tuple[CirclePoint, CirclePoint]],
) -> tuple[list[Fraction], list[Fraction]]:
    """Reconstruct lift values on [x_0, x_0 + 1] from circle breakpoints.

    y_0 picks the representative in [0, 1); later values take y_j + 1 when
    y_j falls below y_0 (cyclic order).  Raises unless the result is a
    strictly increasing degree-one lift.
    """
    if not pts:
        return [], []
    xs = [x.value for x, _ in pts]
    y0 = pts[0][1].value
    ys = [y0]
    for _, y in pts[1:]:
        v = y.value
        ys.append(v if v > y0 else v + 1)
    xs.append(xs[0] + 1)
    ys.append(y0 + 1)
    for j in range(len(ys) - 1):
        if not ys[j] < ys[j + 1]:
            raise InvalidHomeoError(
                "breakpoints do not preserve cyclic order (not a homeomorphism)"
            )
    return xs, ys


def _piece_table(
    xs: Sequence[Fraction], ys: Sequence[Fraction], slopes: Sequence[Fraction]
) -> list[tuple[int, ...]]:
    """Integer form of the lift: per linear piece j, (x_j numerator, x_j
    denominator, a, c, d) with lift(t) = (a t + c) / d on [x_j, x_{j+1}),
    that is slope a/d and intercept c/d over one denominator."""
    table = []
    for j, slope in enumerate(slopes):
        sn, sd = slope.numerator, slope.denominator
        xn, xd = xs[j].numerator, xs[j].denominator
        yn, yd = ys[j].numerator, ys[j].denominator
        # slope sn/sd and intercept y_j - slope x_j over one denominator
        a, c, d = sn * yd * xd, yn * sd * xd - sn * xn * yd, yd * sd * xd
        g = gcd(a, c, d)
        table.append((xn, xd, a // g, c // g, d // g))
    return table
