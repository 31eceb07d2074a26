import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import settings

from hutch import CirclePoint, build_theorem1, theorem2_ifs
from hutch.circle import Arc, ArcSet, normalize

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

ALPHA = Fraction(34, 55)


@pytest.fixture(scope="session")
def theorem2():
    return theorem2_ifs(ALPHA)


@pytest.fixture(scope="session")
def theorem1():
    return build_theorem1()


def random_arcset(rng: random.Random, max_arcs: int = 3, denom: int = 64) -> ArcSet:
    """Seeded random union of arcs with endpoint denominators dividing denom."""
    pieces = []
    for _ in range(rng.randint(1, max_arcs)):
        start = Fraction(rng.randrange(denom), denom)
        length = Fraction(rng.randint(0, denom // 4), denom)
        pieces.append(Arc(CirclePoint(start), length))
    return normalize(pieces)


def random_point(rng: random.Random, denom: int = 2**12) -> CirclePoint:
    return CirclePoint(Fraction(rng.randrange(denom), denom))


def grid_rounded(x: Fraction, grid: int) -> Fraction:
    """The rounding rule of a denominator limit, in plain Fraction
    arithmetic: the nearest multiple of 1/grid, the upper one on a tie."""
    return Fraction(floor(x * grid + Fraction(1, 2)), grid)
