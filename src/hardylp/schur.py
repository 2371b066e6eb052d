"""Dyadic Schur test and the Hardy coupling kernel with its geometric sums.

The test bounds the l^q operator norm of a nonnegative dyadic kernel by two
weighted sum conditions.  Chasing the constants through the proof (Holder,
then the first condition plus Fubini, then the second condition) gives the
explicit bound a1 * a2 for the conclusion, not just an asymptotic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SchurKernel",
    "dyadic_levels",
    "schur_conditions",
    "schur_bound_check",
    "hardy_kernel_entry",
    "hardy_kernel",
    "hardy_row_sum_closed_form",
    "hardy_row_sums",
]

DEFAULT_LEVEL_SPAN = 20  #: kernel index sets default to 2^-20 .. 2^20
ROW_SUM_SPAN = 200  #: least truncation span for the geometric row-sum check
ROW_SUM_TOL = 1e-10  #: tolerance of the row-sum check against its closed form
ROW_SUM_MAX_SPAN = 1022  #: widest row-sum span: every product 2^k is a normal float


def dyadic_levels(span: int = DEFAULT_LEVEL_SPAN, base: float = 1.0) -> tuple:
    """Dyadic index set base * 2^j for j in [-span, span]."""
    return tuple(base * 2.0**j for j in range(-span, span + 1))


@dataclass(frozen=True)
class SchurKernel:
    """Nonnegative kernel entry(N, R) with candidate weights over a finite
    dyadic index set.

    col_levels lets the two copies of the dyadic scale carry different
    truncations (frequency levels against spatial shells, say); it defaults
    to the row index set.
    """

    entry: object  # (N, R) -> float >= 0
    weights: object  # N -> float > 0
    levels: tuple
    col_levels: tuple | None = None

    @property
    def cols(self) -> tuple:
        return self.levels if self.col_levels is None else self.col_levels

    def entries(self) -> np.ndarray:
        return np.array(
            [[float(self.entry(N, R)) for R in self.cols] for N in self.levels]
        )

    def weight_values(self) -> np.ndarray:
        return np.array([float(self.weights(N)) for N in self.levels])

    def col_weight_values(self) -> np.ndarray:
        return np.array([float(self.weights(R)) for R in self.cols])


def _validate_kernel(kernel: SchurKernel):
    a = kernel.entries()
    p_row = kernel.weight_values()
    p_col = kernel.col_weight_values()
    if (a < 0).any():
        raise ValueError("kernel entries must be nonnegative")
    if (p_row <= 0).any() or (p_col <= 0).any():
        raise ValueError("candidate weights must be positive")
    return a, p_row, p_col


def schur_conditions(kernel: SchurKernel, q: float) -> tuple[float, float]:
    """Exact suprema (a1, a2) of the two Schur conditions over the kernel's
    index set; a1 * a2 is the explicit constant in the conclusion.

    a1 = sup_R (sum_N entry(N,R) p_N^(q'/q))^(q/q') / p_R
    a2 = sup_N (sum_R entry(N,R) p_R) / p_N
    """
    if q <= 1:
        raise ValueError(f"exponent must satisfy q > 1, got {q}")
    a, p_row, p_col = _validate_kernel(kernel)
    qc = q / (q - 1.0)
    col = (a * (p_row[:, None] ** (qc / q))).sum(axis=0)  # sum over N at fixed R
    a1 = float(np.max(col ** (q / qc) / p_col))
    row = (a * p_col[None, :]).sum(axis=1)  # sum over R at fixed N
    a2 = float(np.max(row / p_row))
    return a1, a2


def schur_bound_check(kernel: SchurKernel, coeffs, q: float):
    """Check the conclusion sum_R (sum_N entry * C_N)^q <= a1 a2 sum_N C_N^q.

    coeffs maps row levels to nonnegative values (dict or callable); returns
    (lhs, rhs, ratio) with ratio = lhs / rhs (0 when both vanish).
    """
    a1, a2 = schur_conditions(kernel, q)
    a, _, _ = _validate_kernel(kernel)
    if callable(coeffs):
        c = np.array([float(coeffs(N)) for N in kernel.levels])
    else:
        c = np.array([float(coeffs.get(N, 0.0)) for N in kernel.levels])
    if (c < 0).any():
        raise ValueError("coefficient sequence must be nonnegative")
    inner = (a * c[:, None]).sum(axis=0)
    lhs = float((inner**q).sum())
    rhs = float(a1 * a2 * (c**q).sum())
    ratio = lhs / rhs if rhs > 0 else 0.0
    return lhs, rhs, ratio


def _require_hardy_exponents(s: float, d: int, q: float) -> float:
    if not q > 0:  # first: the range of s divides by q
        raise ValueError(f"need q > 0, got q = {q}")
    ratio = d / q
    if not (0.0 < s < ratio):
        raise ValueError(f"need 0 < s < d/q = {ratio:g}, got s = {s}")
    return ratio


def hardy_kernel_entry(N: float, R: float, s: float, d: int, q: float) -> float:
    """min{(NR)^-s, (NR)^(d/q - s)}: the coupling between the dyadic
    frequency N and the dyadic spatial shell R in the Hardy estimate.  Only
    the smaller power is taken (t^-s when t = NR >= 1), as the other may
    overflow."""
    _require_hardy_exponents(s, d, q)
    t = N * R
    return t ** (-s) if t >= 1.0 else t ** (d / q - s)


def hardy_kernel(s: float, d: int, q: float, levels=None) -> SchurKernel:
    """The Hardy coupling kernel as a SchurKernel with unit weights."""
    _require_hardy_exponents(s, d, q)
    if levels is None:
        levels = dyadic_levels()
    return SchurKernel(
        entry=lambda N, R: hardy_kernel_entry(N, R, s, d, q),
        weights=lambda N: 1.0,
        levels=tuple(levels),
    )


def hardy_row_sum_closed_form(s: float, d: int, q: float) -> float:
    """Exact value of the full dyadic row sum:
    2^-s / (1 - 2^-s) + 1 / (1 - 2^-(d/q - s))."""
    try:
        ratio = _require_hardy_exponents(s, d, q)
    except ValueError as err:  # q <= 0; s at the endpoints, beyond them, or NaN
        raise ValueError(f"Schur row sums diverge: {err}") from None
    low, high = 1.0 - 2.0 ** (-s), 1.0 - 2.0 ** (-(ratio - s))
    if low == 0.0 or high == 0.0:  # 2^-c rounds to 1 at c below about 1e-16
        raise ValueError(
            f"Schur row sums at s = {s:g}, d/q = {ratio:g}: 1 - 2^-c rounds to 0 "
            "for c = min(s, d/q - s); take s farther from 0 and from d/q"
        )
    return 2.0 ** (-s) / low + 1.0 / high


def hardy_row_sums(s: float, d: int, q: float, span: int | None = None):
    """Truncated dyadic sums of the Hardy kernel over N and over R, plus the
    closed form they converge to.

    The kernel depends on the product NR only, so both sums run over the
    products 2^k for |k| <= span and agree exactly; widening the truncation
    increases them monotonically toward the closed form.  The default span
    is ROW_SUM_SPAN, widened until the omitted geometric tail
    2^-(span+1)c / (1 - 2^-c), c = min(s, d/q - s), is at most ROW_SUM_TOL/100.
    A span past ROW_SUM_MAX_SPAN, where 2^k leaves the float range, is
    refused (ValueError): s lies too close to 0 or to d/q.
    """
    if span is None and q > 0 and 0.0 < s < d / q:  # else the closed form refuses
        c = min(s, d / q - s)
        gap = 1.0 - 2.0**-c or c * math.log(2.0)  # 2^-c rounds to 1 at tiny c
        tail = math.log2(100.0 / ROW_SUM_TOL / gap) / c
        span = max(ROW_SUM_SPAN, math.ceil(tail) - 1) if tail < math.inf else tail
    if span is not None and span > ROW_SUM_MAX_SPAN:
        raise ValueError(
            f"Schur row sums at s = {s:g}, d/q = {d / q:g} need a truncation "
            f"span of {span} dyadic levels, past the {ROW_SUM_MAX_SPAN} that "
            "floats hold; take s farther from 0 and from d/q"
        )
    closed = hardy_row_sum_closed_form(s, d, q)
    sum_over_n = 0.0
    for k in range(-span, span + 1):
        sum_over_n += hardy_kernel_entry(2.0**k, 1.0, s, d, q)
    sum_over_r = 0.0
    for k in range(-span, span + 1):
        sum_over_r += hardy_kernel_entry(1.0, 2.0**k, s, d, q)
    return sum_over_n, sum_over_r, closed
