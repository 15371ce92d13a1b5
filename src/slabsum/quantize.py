"""Low-bit integer approximation of a hyperplane normal, with exact error terms.

The weight vector S is replaced by U with entries floor(N * s_k / |S|), so U
needs only about log2(N) bits per entry while pointing nearly the same way.
Everything downstream is certified against the exact cached geometry here:
cos^2 of the angle between S and U, the squared drift half-width d_star_sq,
and the squared gap between S/|S| and U/N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .instance import PartitionInstance
from .numerics import Surd, floor_div_sqrt


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
    """Quantized direction plus the exact geometry linking it back to S.

    Invariants (all checked in exact integer/rational arithmetic):
      * u_k^2 * |S|^2 <= N^2 * s_k^2 < (u_k+1)^2 * |S|^2  (floor property)
      * unit_gap_sq == |S/|S| - U/N|^2 <= n / N^2
      * cos_sq in [0, 1] and d_star_sq == (n/4) * (1 - cos_sq)
    """

    u: tuple[int, ...]
    big_n: int
    norm_u_sq: int
    dot_su: int
    norm_s_sq: int
    cos_sq: Fraction
    d_star_sq: Fraction
    unit_gap_sq: Surd

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def total_u(self) -> int:
        return sum(self.u)


@dataclass(frozen=True)
class ShiftBound:
    """Exact value of (d_star * |U|)^2 against the shift-range cap (n/2)^2.

    The cap carries the slack factor 1 + 4n/N^2; the slack has never been
    needed in practice (the strict bound value_sq < (n/2)^2 holds), but the
    report keeps it observable rather than hard-asserted.
    """

    value_sq: Fraction
    limit_sq: Fraction
    within: bool


def quantize(inst: PartitionInstance, c: int | None = None,
             big_n: int | None = None) -> QuantizedNormal:
    """Build U with entries floor(N * s_k / |S|), N = n^c unless overridden.

    Exact throughout: the floors are evaluated on squares, never through a
    floating-point square root.  Raises QuantizationUnderflow listing every
    index whose entry would be zero.
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
    # floor_div_sqrt asserts the floor property of each entry as it goes
    u = tuple([floor_div_sqrt(big_n * w, norm_s_sq) for w in s])
    if 0 in u:
        raise QuantizationUnderflow([k for k, uk in enumerate(u) if uk == 0], big_n)

    norm_u_sq = sum(map(mul, u, u))
    dot_su = sum(map(mul, s, u))
    cos_sq = Fraction(dot_su * dot_su, norm_s_sq * norm_u_sq)
    assert 0 <= cos_sq <= 1
    d_star_sq = Fraction(n, 4) * (1 - cos_sq)

    # |S/|S| - U/N|^2 = 1 + |U|^2/N^2 - 2*(S.U)/(N*|S|), exact over sqrt(|S|^2)
    gap = Surd(
        1 + Fraction(norm_u_sq, big_n * big_n),
        -Fraction(2 * dot_su, big_n * norm_s_sq),
        norm_s_sq,
    )
    assert gap.sign() >= 0
    return QuantizedNormal(
        u=u,
        big_n=big_n,
        norm_u_sq=norm_u_sq,
        dot_su=dot_su,
        norm_s_sq=norm_s_sq,
        cos_sq=cos_sq,
        d_star_sq=d_star_sq,
        unit_gap_sq=gap,
    )


def unit_gap_bound(q: QuantizedNormal) -> Fraction:
    """The exact cap n/N^2 that unit_gap_sq must stay under."""
    return Fraction(q.n, q.big_n * q.big_n)


def shift_bound_report(q: QuantizedNormal) -> ShiftBound:
    """Check (d_star * |U|)^2 against (n/2)^2 * (1 + 4n/N^2), all rational."""
    value_sq = q.d_star_sq * q.norm_u_sq
    slack = 1 + Fraction(4 * q.n, q.big_n * q.big_n)
    limit_sq = Fraction(q.n * q.n, 4) * slack
    return ShiftBound(value_sq=value_sq, limit_sq=limit_sq, within=value_sq <= limit_sq)
