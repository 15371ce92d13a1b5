"""Low-bit integer approximation of a hyperplane normal, with exact error terms.

The weight vector S is replaced by U with entries floor(N * s_k / |S|), so U
needs only about log2(N) bits per entry while pointing nearly the same way.
A QuantizedNormal stores integers only.  Everything downstream is certified
against exact values derived from them on first read: the cross term
(1 - cos^2)|S|^2|U|^2 of the angle between S and U, the squared drift
half-width d_star_sq, and the squared gap between S/|S| and U/N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .instance import PartitionInstance
from .numerics import Surd, floor_div_sqrt_each


class QuantizationUnderflow(ValueError):
    """A weight rounded to zero at this scale; raising the exponent fixes it."""

    def __init__(self, indices, big_n: int):
        self.indices = tuple(indices)
        self.big_n = big_n
        super().__init__(
            f"quantization underflow at indices {list(self.indices)} with N={big_n}; "
            "increase c or N"
        )


@dataclass(frozen=True)
class QuantizedNormal:
    """Quantized direction U, scale N, and |U|^2, S.U and |S|^2, which link U
    back to S.  Invariants, each checked in exact arithmetic:
      * u_k^2 |S|^2 <= N^2 s_k^2 < (u_k+1)^2 |S|^2 (floor): by quantize
      * cos^2 in [0, 1], as 0 <= (S.U)^2 <= |S|^2 |U|^2: on the first read
        of cross_sq or d_star_sq, which every verdict makes
      * unit_gap_sq == |S/|S| - U/N|^2 >= 0: on its first read, which only
        checks make; they bound it by n / N^2 (unit_gap_bound)
    """

    u: tuple[int, ...]
    big_n: int
    norm_u_sq: int
    dot_su: int
    norm_s_sq: int

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def total_u(self) -> int:
        return sum(self.u)

    @cached_property
    def cross_sq(self) -> int:  # |S|^2 |U|^2 - (S.U)^2 = (1 - cos^2) |S|^2 |U|^2
        dot_sq = self.dot_su * self.dot_su
        norms_sq = self.norm_s_sq * self.norm_u_sq
        assert 0 <= dot_sq <= norms_sq  # 0 <= cos^2 <= 1
        return norms_sq - dot_sq

    @cached_property
    def d_star_sq(self) -> Fraction:  # the squared drift half-width, n/4 * (1 - cos^2)
        return Fraction(self.n * self.cross_sq, 4 * self.norm_s_sq * self.norm_u_sq)

    @cached_property
    def unit_gap_sq(self) -> Surd:
        # |S/|S| - U/N|^2 = 1 + |U|^2/N^2 - 2*(S.U)/(N*|S|), exact over sqrt(|S|^2)
        gap = Surd(1 + Fraction(self.norm_u_sq, self.big_n * self.big_n),
                   -Fraction(2 * self.dot_su, self.big_n * self.norm_s_sq), self.norm_s_sq)
        assert gap.sign() >= 0
        return gap


@dataclass(frozen=True)
class ShiftBound:
    """Exact value of (d_star * |U|)^2 against the shift-range cap (n/2)^2.

    The cap carries the slack factor 1 + 4n/N^2; the slack has never been
    needed in practice (the strict bound value_sq < (n/2)^2 holds), but the
    report keeps it observable rather than hard-asserted.
    """

    value_sq: Fraction
    limit_sq: Fraction

    @property
    def within(self) -> bool:
        return self.value_sq <= self.limit_sq


def quantize(inst: PartitionInstance, c: int | None = None,
             big_n: int | None = None) -> QuantizedNormal:
    """Build U with entries floor(N * s_k / |S|), N = n^c unless overridden.

    Exact throughout, never through a floating-point square root.  One
    rational bracket p / 2^k <= N / |S| < (p + 1) / 2^k, with k 64 bits
    past the size of |S| and checked once on squares, gives every floor
    from two products: floor(s_k p / 2^k) and floor(s_k (p + 1) / 2^k)
    bound u_k, and where they agree they are it.  An entry where they
    differ is floor_div_sqrt's, which checks u_k^2 |S|^2 <= (N s_k)^2 <
    (u_k + 1)^2 |S|^2 on squares (numerics.floor_div_sqrt_each).  Raises
    QuantizationUnderflow listing every index whose entry would be zero.
    """
    if (c is None) == (big_n is None):
        raise ValueError("give exactly one of c or big_n")
    n = inst.n
    if big_n is None:
        if c < 2:
            raise ValueError("exponent c must be at least 2")
        big_n = n ** c
    elif big_n < 1:
        raise ValueError("N must be positive")

    s = inst.weights
    norm_s_sq = inst.norm_sq
    u = tuple(floor_div_sqrt_each(big_n, s, norm_s_sq))
    if 0 in u:
        raise QuantizationUnderflow([k for k, uk in enumerate(u) if uk == 0], big_n)

    return QuantizedNormal(u=u, big_n=big_n, norm_u_sq=sum(map(mul, u, u)),
                           dot_su=sum(map(mul, s, u)), norm_s_sq=norm_s_sq)


def unit_gap_bound(q: QuantizedNormal) -> Fraction:
    """The exact cap n/N^2 that unit_gap_sq must stay under."""
    return Fraction(q.n, q.big_n * q.big_n)


def shift_bound_report(q: QuantizedNormal) -> ShiftBound:
    """Check (d_star * |U|)^2 against (n/2)^2 * (1 + 4n/N^2), all rational."""
    slack = 1 + Fraction(4 * q.n, q.big_n * q.big_n)
    return ShiftBound(q.d_star_sq * q.norm_u_sq, Fraction(q.n * q.n, 4) * slack)
