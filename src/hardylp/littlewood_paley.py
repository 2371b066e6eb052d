"""Dyadic frequency decomposition and the Besov / Triebel-Lizorkin norms.

The partition of unity is built from the standard exp(-1/t) mollifier: a
radial cutoff chi equal to 1 on |t| <= 1 and 0 on |t| >= 2, with the bump
psi(t) = chi(t) - chi(2t) supported on the annulus 1/2 <= |t| <= 2.  Summing
psi(xi/N) over dyadic N telescopes, so the finite level set covers the grid
exactly: the lowest level keeps the raw chi tail below it and the highest
level absorbs everything above, which makes reconstruction exact for every
mean-zero field on the grid.  smooth_step is the one C^inf step: chi is the
step of 2 - |t|, and the corpus' radial cutoff uses it too.  Each level's
multiplier is tabulated over the grid's distinct frequency radii and
gathered onto the lattice.

decompose is an iterator that makes each piece P_N f when it is taken.
level_sums is one pass over the levels of a field, with no (levels, *shape)
stack: it keeps the per-level norms (a level whose max^p leaves
2^(+-600) takes _lq's scaled norm, so a large p does not underflow) and
maxima, the pointwise sums of (N^s |P_N f|)^r and the per-shell sums, as a
LevelSums, which every scale-indexed norm reads (Besov, Triebel-Lizorkin and
the pointwise aggregates).  A level after the first that is exactly zero
adds nothing to the pointwise sums.  At finite p an even field
(SampledField.octant) is read on its octant, one forward DCT and one inverse
DCT per level, with LevelSums.cell_volume = 2^d h^d.
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
    _even_inverse,
    _even_transform,
    _frequency_classes,
    _lq,
    _power_scale,
    _radial_symbol,
    _raise,
    _samples,
)

__all__ = [
    "DyadicPartition",
    "smooth_step",
    "smooth_cutoff",
    "dyadic_bump",
    "build_partition",
    "project",
    "decompose",
    "LevelSums",
    "level_sums",
    "group_sums",
    "besov_terms",
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


def smooth_step(u) -> np.ndarray:
    """C^inf monotone step: 0 for u <= 0, 1 for u >= 1, the blend
    exp(-1/u) / (exp(-1/u) + exp(-1/(1-u))) in between."""
    u = np.asarray(u, dtype=float)
    up = _mollifier(u)
    down = _mollifier(1.0 - u)
    return np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, up / (up + down)))


def smooth_cutoff(t) -> np.ndarray:
    """C^inf radial cutoff: 1 for |t| <= 1, 0 for |t| >= 2, the smooth step
    of 2 - |t| in between."""
    return smooth_step(2.0 - np.abs(np.asarray(t, dtype=float)))


def dyadic_bump(t) -> np.ndarray:
    """psi(t) = chi(t) - chi(2t), supported on 1/2 <= |t| <= 2."""
    t = np.asarray(t, dtype=float)
    return smooth_cutoff(t) - smooth_cutoff(2.0 * t)


@dataclass(frozen=True)
class DyadicPartition:
    """Tabulated dyadic frequency partition for one grid.

    levels are the dyadic frequencies N (powers of two over the base 1/L);
    tables[N] is the level-N multiplier over the distinct frequency radii of
    spectral_core._frequency_classes.  Interior levels carry psi(xi/N); the
    two edge levels keep the raw chi tails so the multipliers sum to exactly
    1 away from frequency zero.
    """

    grid: GridSpec
    levels: tuple[float, ...]
    tables: dict
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

    def multiplier(self, N: float, real: bool = False) -> np.ndarray:
        """The level-N multiplier on the lattice (its rfftn half when real)."""
        return self.tables[N][_frequency_classes(self.grid, real)[0]]

    def multiplier_sum(self) -> np.ndarray:
        total = sum(self.tables[N] for N in self.levels)
        return total[_frequency_classes(self.grid, False)[0]]


def build_partition(grid: GridSpec, coverage: float = 0.5) -> DyadicPartition:
    """Dyadic levels from the smallest power of two >= 2/L up to
    coverage * Nyquist, tabulated over the grid's distinct frequency radii."""
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
    rad = _frequency_classes(grid, True)[1]
    tables = {}
    for i, N in enumerate(levels):
        if i == 0:
            vals = smooth_cutoff(rad / N)
            vals[0] = 0.0  # the mean mode, radius 0, is excluded from the partition
        elif i == len(levels) - 1:
            vals = 1.0 - smooth_cutoff(2.0 * rad / N)
        else:
            vals = dyadic_bump(rad / N)
        vals.setflags(write=False)
        tables[N] = vals
    return DyadicPartition(grid, levels, tables, coverage)


def project(f: SampledField, partition: DyadicPartition, N: float) -> SampledField:
    """P_N f: multiply the spectrum by the tabulated level-N multiplier."""
    if N not in partition.tables:
        raise ValueError(
            f"dyadic level {N:g} outside the partition range "
            f"[{partition.n_min:g}, {partition.n_max:g}]"
        )
    mult = _radial_symbol(partition.grid, partition.tables[N], np.isrealobj(f.values))
    return f.with_values(next(_apply_diag(f.values, [mult], f.box)))


def decompose(f: SampledField, partition: DyadicPartition):
    """The pieces P_N f in partition order, as an iterator that makes each
    piece when it is taken; they sum to the mean-free part of f.  The level-N
    table vanishes from |xi| = 2N on, so on a real field every level below
    the top takes the inverse pruned to the box |k_i| < 2NL of its support
    (_radial_symbol); the top level is a high-pass and takes the whole
    in-place inverse.  A field that carries a box spectrum takes no forward
    FFT, and every level's inverse is pruned to that box, or to the level's
    own when it is smaller; a level whose product vanishes on the box, as the
    top level does on a band field's, is zero with no inverse."""
    real = np.isrealobj(f.values)
    grid, tables = partition.grid, partition.tables
    mults = (_radial_symbol(grid, tables[N], real) for N in partition.levels)
    return _apply_diag(f.values, mults, f.box)


@dataclass(frozen=True)
class LevelSums:
    """One level pass over f at smoothness s, with p_N = N^s |P_N f|: per
    level ||p_N||_p (norms) and max p_N (maxima); powers[r], the pointwise
    sum over levels of p_N^r (the pointwise max at r = inf); and, when the
    pass had sample groups, the (levels, groups) sums of p_N^p (shells)."""

    p: float
    cell_volume: float
    norms: np.ndarray
    maxima: np.ndarray
    powers: dict
    shells: np.ndarray | None

    def aggregate(self, r: float) -> np.ndarray:
        """The pointwise l^r aggregate over levels; the max when r = inf."""
        return self.powers[r] if r == np.inf else self.powers[r] ** (1.0 / r)

    def besov(self, q: float) -> float:
        """The l^q sum over levels of ||p_N||_p."""
        if self.p < 1 or q < 1:
            raise ValueError("Besov exponents must satisfy p, q >= 1")
        return _lq(self.norms, 1.0, q)

    def triebel_lizorkin(self, r: float) -> float:
        """The L^p norm of the pointwise l^r aggregate."""
        if self.p < 1 or r < 1:
            raise ValueError("Triebel-Lizorkin exponents must satisfy p, r >= 1")
        return _lq(self.aggregate(r), self.cell_volume, self.p)


def level_sums(
    f: SampledField,
    partition: DyadicPartition,
    s: float,
    p: float = 2.0,
    powers=(),
    groups: tuple[np.ndarray, np.ndarray] | None = None,
) -> LevelSums:
    """The LevelSums of f: one pass over the pieces of decompose, one level
    at a time, with no (levels, *shape) stack, each raised to p in place by
    _raise once its max and other powers are taken.  A level after the first
    that is exactly zero, as a band field's top level is, adds nothing to the
    pointwise sums: only its zero norm and shell sums are recorded.  At finite
    p an even f (SampledField.octant) is read on its octant x_i > 0, on cells
    of 2^d h^d, by DCT per level; groups, when given, is the (order, starts)
    of group_sums on the samples the pass reads, and needs a finite p."""
    grid, tables = partition.grid, partition.tables
    samples, hd = _samples(f, p)
    if samples.shape == grid.shape:  # all of f, not an even field's octant
        pieces = decompose(f, partition)
    else:
        spec = _even_transform(samples)
        index = _frequency_classes(grid, True)[0][(slice(0, grid.n // 2),) * grid.d]
        pieces = (_even_inverse(spec * tables[N][index]) for N in partition.levels)
    totals, others = {}, set(powers) - {p}
    norms, maxima, shells = [], [], []
    for N in partition.levels:  # not zip, whose result tuple keeps a piece alive
        level = next(pieces)
        level = np.abs(level, out=level) if np.isrealobj(level) else np.abs(level)
        level *= N**s
        maxima.append(float(level.max(initial=0.0)))
        if maxima[-1] == 0.0 and totals.keys() >= set(powers):  # it adds nothing
            norms.append(0.0)
            if groups is not None:
                shells.append(np.zeros(len(groups[1]) + 1))
            continue
        for r in others:
            if r != np.inf:
                _accumulate(totals, r, _raise(level.copy(), r))
            else:  # level is raised to p below, so a first max copies it
                _accumulate(totals, r, level if r in totals else level.copy())
        if p != np.inf:  # a level of max^p out of range takes _lq's scaled norm
            scaled = _lq(level, hd, p) if _power_scale(maxima[-1], p) != 1.0 else None
            norm = float((_raise(level, p).sum() * hd) ** (1.0 / p))
        norms.append(maxima[-1] if p == np.inf else norm if scaled is None else scaled)
        if groups is not None:
            shells.append(group_sums(level, groups))
        if p in powers:
            _accumulate(totals, p, level)
        level = None  # one level's arrays at a time
    shells = np.array(shells) if groups is not None else None
    return LevelSums(p, hd, np.array(norms), np.array(maxima), totals, shells)


def _accumulate(totals: dict, r: float, term: np.ndarray) -> None:
    """Add term into totals[r] in place (max at r = inf); a first term is kept."""
    total = totals.setdefault(r, term)
    if total is not term:
        (np.maximum if r == np.inf else np.add)(total, term, out=total)


def group_sums(values: np.ndarray, groups: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The sum of values over each group of samples, bitwise that of
    values[mask] for the group's mask.  groups is (order, starts): the flat
    sample indices stably sorted by group, and where each group starts."""
    order, starts = groups
    return np.array([part.sum() for part in np.split(values.ravel()[order], starts)])


def besov_terms(
    f: SampledField, partition: DyadicPartition, s: float, p: float
) -> dict:
    """Per-level contributions N^s ||P_N f||_p of the Besov sum."""
    return dict(zip(partition.levels, level_sums(f, partition, s, p).norms.tolist()))


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
