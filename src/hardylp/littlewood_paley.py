"""Dyadic frequency decomposition and the Besov / Triebel-Lizorkin norms.

The partition of unity is built from the standard exp(-1/t) mollifier: a
radial cutoff chi equal to 1 on |t| <= 1 and 0 on |t| >= 2, with the bump
psi(t) = chi(t) - chi(2t) supported on the annulus 1/2 <= |t| <= 2.  Summing
psi(xi/N) over dyadic N telescopes, so the finite level set covers the grid
exactly: the lowest level keeps the raw chi tail below it and the highest
level absorbs everything above, which makes reconstruction exact for every
mean-zero field on the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    GridSpec,
    SampledField,
    _apply_diag,
    _lq,
    frequency_radius,
    lq_norm,
)

__all__ = [
    "DyadicPartition",
    "smooth_cutoff",
    "dyadic_bump",
    "build_partition",
    "project",
    "decompose",
    "besov_terms",
    "besov_norm",
    "triebel_lizorkin_norm",
    "square_function",
    "bernstein_check",
    "partition_record",
]

PROFILE_NAME = "bump-telescope-v1"


def _mollifier(u: np.ndarray) -> np.ndarray:
    """exp(-1/u) for u > 0, zero otherwise."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_cutoff(t) -> np.ndarray:
    """C^inf radial cutoff: 1 for |t| <= 1, 0 for |t| >= 2, a smooth blend of
    exp(-1/u) bumps in between."""
    t = np.abs(np.asarray(t, dtype=float))
    up = _mollifier(2.0 - t)
    down = _mollifier(t - 1.0)
    mid = (t > 1.0) & (t < 2.0)
    out = np.where(t <= 1.0, 1.0, 0.0)
    denom = up + down
    out[mid] = up[mid] / denom[mid]
    return out


def dyadic_bump(t) -> np.ndarray:
    """psi(t) = chi(t) - chi(2t), supported on 1/2 <= |t| <= 2."""
    t = np.asarray(t, dtype=float)
    return smooth_cutoff(t) - smooth_cutoff(2.0 * t)


@dataclass(frozen=True)
class DyadicPartition:
    """Tabulated dyadic frequency partition for one grid.

    levels are the dyadic frequencies N (powers of two over the base 1/L);
    multipliers[N] is the tabulated lattice multiplier for the projector at
    scale N.  Interior levels carry psi(xi/N); the two edge levels keep the
    raw chi tails so the multipliers sum to exactly 1 away from frequency
    zero.
    """

    grid: GridSpec
    levels: tuple[float, ...]
    multipliers: dict
    coverage: float

    @property
    def n_min(self) -> float:
        return self.levels[0]

    @property
    def n_max(self) -> float:
        return self.levels[-1]

    def interior_band(self) -> tuple[float, float]:
        """Frequency band on which the plain dyadic sum is guaranteed to be 1."""
        return (self.n_min, self.n_max / 2.0)

    def multiplier_sum(self) -> np.ndarray:
        total = np.zeros(self.grid.shape)
        for N in self.levels:
            total = total + self.multipliers[N]
        return total


def build_partition(grid: GridSpec, coverage: float = 0.5) -> DyadicPartition:
    """Dyadic levels from the smallest power of two >= 2/L up to
    coverage * Nyquist, tabulated on the grid's frequency lattice."""
    if not (0.0 < coverage <= 1.0):
        raise ValueError(f"coverage must lie in (0, 1], got {coverage}")
    top = coverage * grid.nyquist
    j_min = 1  # smallest dyadic >= 2/L is 2^1 / L
    j_max = int(math.floor(math.log2(top * grid.L)))
    if j_max - j_min + 1 < 3:
        raise ValueError(
            "grid too coarse for dyadic analysis: fewer than 3 dyadic levels "
            f"between 2/L and coverage * Nyquist = {top:g}"
        )
    levels = tuple((2.0**j) / grid.L for j in range(j_min, j_max + 1))
    rad = frequency_radius(grid)
    multipliers = {}
    for i, N in enumerate(levels):
        if i == 0:
            vals = smooth_cutoff(rad / N)
            vals.flat[0] = 0.0  # the mean mode is excluded from the partition
        elif i == len(levels) - 1:
            vals = 1.0 - smooth_cutoff(2.0 * rad / N)
        else:
            vals = dyadic_bump(rad / N)
        vals.setflags(write=False)
        multipliers[N] = vals
    return DyadicPartition(
        grid=grid, levels=levels, multipliers=multipliers, coverage=coverage
    )


def project(f: SampledField, partition: DyadicPartition, N: float) -> SampledField:
    """P_N f: multiply the spectrum by the tabulated level-N multiplier."""
    if N not in partition.multipliers:
        raise ValueError(
            f"dyadic level {N:g} outside the partition range "
            f"[{partition.n_min:g}, {partition.n_max:g}]"
        )
    return f.with_values(_apply_diag(f.values, [partition.multipliers[N]])[0])


def decompose(f: SampledField, partition: DyadicPartition) -> np.ndarray:
    """The (levels, *shape) stack of the pieces P_N f, one per dyadic level
    in partition order; the pieces sum to the mean-free part of f."""
    return _apply_diag(f.values, [partition.multipliers[N] for N in partition.levels])


def _weighted_stack(
    f: SampledField, partition: DyadicPartition, s: float
) -> np.ndarray:
    """The real stack N^s |P_N f| from one decomposition of f; every
    scale-indexed norm of f at smoothness s reads from it."""
    stack = np.abs(decompose(f, partition))
    powers = np.array([N**s for N in partition.levels])
    stack *= powers.reshape((-1,) + (1,) * f.grid.d)
    return stack


def _level_norms(f: SampledField, stack: np.ndarray, p: float) -> np.ndarray:
    """The L^p norm on f's grid of each level of a stack."""
    return np.array([_lq(level, f.grid.h**f.grid.d, p) for level in stack])


def _lr_sum(stack: np.ndarray, r: float) -> np.ndarray:
    """The l^r sum over the first axis; the max when r is infinite."""
    if r == np.inf:
        return stack.max(axis=0, initial=0.0)
    return (stack**r).sum(axis=0) ** (1.0 / r)


def besov_terms(
    f: SampledField, partition: DyadicPartition, s: float, p: float
) -> dict:
    """Per-level contributions N^s ||P_N f||_p of the Besov sum."""
    terms = _level_norms(f, _weighted_stack(f, partition, s), p)
    return dict(zip(partition.levels, terms.tolist()))


def besov_norm(
    f: SampledField, partition: DyadicPartition, s: float, p: float, q: float
) -> float:
    """Homogeneous Besov norm: the l^q sum over dyadic scales of
    N^s ||P_N f||_p, truncated to the partition range."""
    return _besov_norm(f, _weighted_stack(f, partition, s), p, q)


def _besov_norm(f: SampledField, stack: np.ndarray, p: float, q: float) -> float:
    if p < 1 or q < 1:
        raise ValueError("Besov exponents must satisfy p, q >= 1")
    return float(_lr_sum(_level_norms(f, stack, p), q))


def scale_aggregate(
    f: SampledField, partition: DyadicPartition, s: float, r: float
) -> np.ndarray:
    """Pointwise l^r aggregate over scales of N^s |P_N f(x)|."""
    return _lr_sum(_weighted_stack(f, partition, s), r)


def triebel_lizorkin_norm(
    f: SampledField, partition: DyadicPartition, s: float, p: float, r: float
) -> float:
    """Homogeneous Triebel-Lizorkin norm: L^p quadrature of the pointwise
    l^r aggregate over dyadic scales."""
    return _triebel_lizorkin_norm(f, _weighted_stack(f, partition, s), p, r)


def _triebel_lizorkin_norm(
    f: SampledField, stack: np.ndarray, p: float, r: float
) -> float:
    if p < 1 or r < 1:
        raise ValueError("Triebel-Lizorkin exponents must satisfy p, r >= 1")
    return lq_norm(f.with_values(_lr_sum(stack, r)), p)


def square_function(
    f: SampledField, partition: DyadicPartition, s: float
) -> SampledField:
    """The pointwise l^2 aggregate (sum_N N^(2s) |P_N f|^2)^(1/2)."""
    return f.with_values(scale_aggregate(f, partition, s, 2.0))


def bernstein_check(
    f: SampledField, partition: DyadicPartition, N: float, q: float
) -> float:
    """Ratio ||P_N f||_inf / (N^(d/q) ||P_N f||_q).

    Frequency localization makes the ratio bounded uniformly in N and f;
    the bound depends on the bump profile and is recorded empirically, not
    asserted to be 1.  A vanishing piece returns 0.
    """
    piece = project(f, partition, N)
    sup = lq_norm(piece, np.inf)
    if sup == 0.0:
        return 0.0
    d = f.grid.d
    return sup / (N ** (d / q) * lq_norm(piece, q))


def partition_record(partition: DyadicPartition) -> str:
    """JSON record of the partition for reproducible reports."""
    return json.dumps(
        {
            "levels": list(partition.levels),
            "profile": PROFILE_NAME,
            "coverage": partition.coverage,
        },
        sort_keys=True,
    )
