"""Exact arithmetic for certificates: integer square roots and quadratic surds.

Every quantity a solver certifies (slab half-widths, quantization residuals,
shell deviations) is either rational or of the form a + b*sqrt(m) with a, b
rational and m a nonnegative integer.  Values of the second kind stay symbolic
in :class:`Surd`; a comparison reads the exact sign of a difference.
Floating point never participates in a verdict.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

RationalLike = int | Fraction


def floor_div_sqrt(a: int, b: int) -> int:
    """Floor of a / sqrt(b) for integers a >= 0, b > 0.

    floor(a / sqrt(b)) == isqrt(a*a // b); the defining inequality
    r^2 * b <= a^2 < (r+1)^2 * b is re-checked on every call.
    """
    if b <= 0:
        raise ValueError("floor_div_sqrt requires b > 0")
    if a < 0:
        raise ValueError("floor_div_sqrt requires a >= 0")
    r = math.isqrt(a * a // b)
    assert r * r * b <= a * a < (r + 1) * (r + 1) * b
    return r


def floor_div_sqrt_each(scale: int, weights: Sequence[int], b: int) -> list[int]:
    """[floor_div_sqrt(scale * w, b) for w in weights], from one bracket of
    scale / sqrt(b) and two products per weight instead of one square root.

    With k = 64 + bit_length(b) // 2, p = isqrt(scale^2 * 2^(2k) // b)
    brackets the ratio, p / 2^k <= scale / sqrt(b) < (p + 1) / 2^k, checked
    once on squares.  So floor(w * p / 2^k) and floor(w * (p + 1) / 2^k)
    bracket floor(scale * w / sqrt(b)), and where they agree they are it.
    They differ only where an integer lies within w / 2^k of scale * w /
    sqrt(b), less than 2^-63 when w^2 <= b: in practice only where scale * w
    / sqrt(b) is an integer that p / 2^k misses, as for (9, 12) at scale 5.
    floor_div_sqrt answers those entries.
    """
    if b <= 0 or scale < 0 or min(weights, default=0) < 0:
        raise ValueError("floor_div_sqrt requires a >= 0 and b > 0")
    k = 64 + b.bit_length() // 2
    target = scale * scale << 2 * k
    p = math.isqrt(target // b)
    assert p * p * b <= target < (p + 1) * (p + 1) * b
    q = p + 1
    below = [w * p >> k for w in weights]
    above = [w * q >> k for w in weights]
    if below != above:
        for i, (lo, hi) in enumerate(zip(below, above)):
            if lo != hi:
                below[i] = floor_div_sqrt(scale * weights[i], b)
    return below


@dataclass(frozen=True)
class Surd:
    """Exact value ``rat + coef * sqrt(rad)`` with integer radicand rad >= 0.

    Perfect-square radicands collapse into the rational part on construction,
    so purely rational values always carry rad == 0.  Addition, subtraction
    and multiplication are closed for a shared radicand, and sign() is exact:
    compare two values by ``(a - b).sign()``.  ``==`` is field equality, exact
    on collapsed values: ``Surd(0, 1, 2) * Surd(0, 1, 2) == Surd(2)``.
    """

    rat: Fraction
    coef: Fraction
    rad: int

    def __init__(self, rat: RationalLike = 0, coef: RationalLike = 0, rad: int = 0):
        rat = Fraction(rat)
        coef = Fraction(coef)
        rad = int(rad)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        if coef == 0:
            rad = 0
        else:
            r = math.isqrt(rad)
            if r * r == rad:
                rat += coef * r
                coef = Fraction(0)
                rad = 0
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", rad)

    # -- field structure (shared radicand) --------------------------------

    def _coerce(self, other) -> "Surd":
        if isinstance(other, Surd):
            if other.rad != 0 and self.rad != 0 and other.rad != self.rad:
                raise ValueError(f"incompatible radicands {self.rad} and {other.rad}")
            return other
        return Surd(other)

    def _join_rad(self, other: "Surd") -> int:
        return self.rad or other.rad

    def __add__(self, other):
        o = self._coerce(other)
        return Surd(self.rat + o.rat, self.coef + o.coef, self._join_rad(o))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Surd(-self.rat, -self.coef, self.rad)

    def __mul__(self, other):
        o = self._coerce(other)
        rad = self._join_rad(o)
        return Surd(
            self.rat * o.rat + self.coef * o.coef * rad,
            self.rat * o.coef + self.coef * o.rat,
            rad,
        )

    __rmul__ = __mul__

    # -- exact sign --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        a, b = self.rat, self.coef
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: value > 0 iff the positive term wins after squaring
        lhs, rhs = a * a, b * b * self.rad
        if a > 0:
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)


def sqrt_diff_within(x_sq: Surd | RationalLike, y_sq: Surd | RationalLike,
                     width: RationalLike) -> bool:
    """Exact test ``|sqrt(x_sq) - sqrt(y_sq)| <= width`` for nonnegative inputs.

    Equivalent to x_sq + y_sq - width^2 <= 2*sqrt(x_sq*y_sq); one more
    squaring settles it whenever the left side is positive.  x_sq and y_sq
    may be rational or surds over one shared radicand.
    """
    x_sq = x_sq if isinstance(x_sq, Surd) else Surd(x_sq)
    y_sq = y_sq if isinstance(y_sq, Surd) else Surd(y_sq)
    width = Fraction(width)
    if width < 0:
        raise ValueError("width must be nonnegative")
    if x_sq.sign() < 0 or y_sq.sign() < 0:
        raise ValueError("squared arguments must be nonnegative")
    lhs = x_sq + y_sq - width * width
    if lhs.sign() <= 0:
        return True
    return (lhs * lhs - 4 * (x_sq * y_sq)).sign() <= 0
