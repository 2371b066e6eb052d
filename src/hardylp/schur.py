"""Dyadic Schur test and the Hardy coupling kernel with its geometric sums.

A kernel is a nonnegative entry matrix over dyadic levels.  The test bounds
its l^q operator norm by two sum conditions with unit weights, the weights
of the paper's proof.  Chasing the constants through the proof (Holder, then
the first condition plus Fubini, then the second condition) gives the
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


@dataclass(frozen=True, eq=False)
class SchurKernel:
    """Nonnegative entry matrix a[i, j] = K(N_i, R_j) of a dyadic kernel: one
    row per level N_i in levels, one column per R_j of an index set that may
    carry another truncation (frequency levels against spatial shells, say).
    The entries are copied once and made read-only."""

    entries: np.ndarray
    levels: tuple

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or len(a) != len(self.levels):
            n = len(self.levels)
            raise ValueError(f"kernel needs one entry row per level ({n}): {a.shape}")
        if (a < 0).any():
            raise ValueError("kernel entries must be nonnegative")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "levels", tuple(self.levels))


def schur_conditions(kernel: SchurKernel, q: float) -> tuple[float, float]:
    """Exact suprema (a1, a2) of the two Schur conditions with unit weights
    over the kernel's index set; a1 * a2 is the explicit constant in the
    conclusion.

    a1 = max_R (sum_N a(N,R))^(q/q')   (from the largest column sum)
    a2 = max_N sum_R a(N,R)            (the largest row sum)
    """
    if q <= 1:
        raise ValueError(f"exponent must satisfy q > 1, got {q}")
    qc = q / (q - 1.0)
    a1 = float(np.max(kernel.entries.sum(axis=0) ** (q / qc)))
    a2 = float(np.max(kernel.entries.sum(axis=1)))
    return a1, a2


def schur_bound_check(kernel: SchurKernel, coeffs, q: float):
    """Check the conclusion sum_R (sum_N a(N,R) C_N)^q <= a1 a2 sum_N C_N^q.

    coeffs is a dict from row levels to nonnegative values, 0 where a level
    is missing; returns (lhs, rhs, ratio) with ratio = lhs / rhs (0 when
    both vanish).
    """
    a1, a2 = schur_conditions(kernel, q)
    c = np.array([float(coeffs.get(N, 0.0)) for N in kernel.levels])
    if (c < 0).any():
        raise ValueError("coefficient sequence must be nonnegative")
    inner = (kernel.entries * c[:, None]).sum(axis=0)
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


def hardy_kernel(s: float, d: int, q: float, levels=None, cols=None) -> SchurKernel:
    """The Hardy coupling kernel on rows levels (default dyadic_levels())
    and columns cols (default levels), each entry from hardy_kernel_entry."""
    _require_hardy_exponents(s, d, q)
    levels = dyadic_levels() if levels is None else tuple(levels)
    cols = levels if cols is None else tuple(cols)
    entries = [[hardy_kernel_entry(N, R, s, d, q) for R in cols] for N in levels]
    return SchurKernel(np.reshape(entries, (len(levels), len(cols))), levels)


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
    products = dyadic_levels(span)
    sum_over_n = float(hardy_kernel(s, d, q, products, (1.0,)).entries.sum())
    sum_over_r = float(hardy_kernel(s, d, q, (1.0,), products).entries.sum())
    return sum_over_n, sum_over_r, closed
