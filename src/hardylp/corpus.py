"""Reproducible test-field families.

Three families cover rough and smooth profiles: fixed-seed random
band-limited fields (complex Gaussian coefficients under a power-law
envelope, synthesized real), centered Gaussians scaled to decay below 1e-8
at the box faces, and truncated power laws with smooth radial cutoffs.
Every field is a deterministic function of (grid, seed, index).

The radial families are evaluated once per radial class of the
cell-centred grid and gathered onto the mesh.  A band-limited field keeps
only the Hermitian part of its coefficients, scattered onto the half
spectrum, and is synthesized by one real inverse FFT.
"""

from __future__ import annotations

import numpy as np

from .littlewood_paley import _mollifier
from .spectral_core import (
    GridSpec,
    SampledField,
    _phase_1d,
    _radial_values,
    frequency_radius,
)

__all__ = [
    "smooth_step",
    "gaussian_field",
    "truncated_power_field",
    "random_band_limited_field",
    "standard_corpus",
]

# Gaussian widths as a fraction of L.  On the outermost sample layer, at
# L/2 - h/2, sigma = 0.075 L stays below 1e-8 for every n >= 16; sigma = 0.08 L
# does only for n >= 64, and reaches 1.03e-8 to 1.1e-8 at n = 32 (d = 4 to 1).
GAUSSIAN_WIDTHS = (0.075, 0.08)
SINGULARITY_FRACTIONS = (0.35, 0.6)


def smooth_step(u) -> np.ndarray:
    """C^inf monotone step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    up = _mollifier(u)
    down = _mollifier(1.0 - u)
    return np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, up / (up + down)))


def gaussian_field(grid: GridSpec, sigma: float) -> SampledField:
    """exp(-|x|^2 / (2 sigma^2)) centered in the box."""
    if sigma <= 0:
        raise ValueError("width must be positive")
    vals = _radial_values(grid, lambda r: np.exp(-(r**2) / (2.0 * sigma**2)))
    return SampledField(grid, vals)


def truncated_power_field(
    grid: GridSpec,
    exponent: float,
    r_inner: float,
    r_outer: float,
) -> SampledField:
    """Power-law profile |x|^-exponent, smoothly cut at two radii.

    The inner cutoff caps the singularity: the profile levels off to the
    plateau (r_inner^2 + |x|^2)^(-exponent/2), so exponent -> 0 gives a
    smooth bump.  The outer cutoff takes the field to 0 on
    [r_outer, min(2 r_outer, 0.46 L)], clear of the box faces.  Raises when
    the cutoffs collapse (grid too coarse).
    """
    if exponent < 0:
        raise ValueError("power exponent must be nonnegative")
    if r_inner < 2.0 * grid.h:
        raise ValueError(f"inner cutoff must be >= 2h = {2 * grid.h:g}")
    fall_end = min(2.0 * r_outer, 0.46 * grid.L)
    if not (2.0 * r_inner < r_outer < fall_end):
        raise ValueError(
            "cutoff radii collapse: need 2 * r_inner < r_outer < "
            f"{fall_end:g}; grid too coarse"
        )

    def profile(r):
        fall = smooth_step((fall_end - r) / (fall_end - r_outer))
        return (r_inner**2 + r**2) ** (-exponent / 2.0) * fall

    return SampledField(grid, _radial_values(grid, profile))


def random_band_limited_field(
    grid: GridSpec,
    seed: int,
    envelope: float = 1.0,
    band: tuple[float, float] | None = None,
) -> SampledField:
    """Real field with random spectrum supported on a frequency annulus.

    Coefficients are complex Gaussian draws damped by (|xi| / band_lo)^-envelope,
    drawn over the lattice points of the annulus in C order; the synthesized
    field is the real part, so the spectrum stays inside the (symmetric)
    annulus and the mean vanishes.  The real part of sum_k g_k e^(2 pi i k x)
    has coefficients (g_k + conj g_-k) / 2, which is what the half spectrum
    receives before one irfftn.
    """
    if band is None:
        band = (2.0 / grid.L, grid.n / (8.0 * grid.L))
    lo, hi = band
    if not (0.0 < lo <= hi):
        raise ValueError(f"invalid frequency band {band}")
    rad = frequency_radius(grid)
    mask = (rad >= lo * (1.0 - 1e-12)) & (rad <= hi * (1.0 + 1e-12))
    if not mask.any():
        raise ValueError(f"no lattice frequencies inside the band {band}")
    rng = np.random.default_rng(seed)
    idx = np.nonzero(mask)
    count = idx[0].size
    draws = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    coef = draws * (rad[idx] / lo) ** (-envelope)
    # the cell-centring phases of inverse_transform, at the masked points only
    phase = _phase_1d(grid, "cell").conj()
    for k in idx:
        coef = coef * phase[k]
    coef *= grid.size / 2.0
    n, half = grid.n, grid.n // 2 + 1
    spec = np.zeros(grid.shape[:-1] + (half,), dtype=np.complex128)
    keep = idx[-1] < half
    spec[tuple(k[keep] for k in idx)] += coef[keep]
    mirror = tuple((n - k) % n for k in idx)
    keep = mirror[-1] < half
    spec[tuple(k[keep] for k in mirror)] += coef[keep].conj()
    vals = np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(grid.d)))
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals / peak
    return SampledField(grid, vals)


def standard_corpus(
    grid: GridSpec,
    size: int,
    seed: int,
    s: float = 1.0,
    q: float = 2.0,
) -> list[tuple[str, SampledField]]:
    """Deterministic corpus of `size` labelled fields on one grid.

    Two Gaussians and (when the grid can hold the cutoffs) two truncated
    power laws lead; random band-limited fields fill the rest.  Power
    exponents are fractions of d/q - s so the continuum weighted norm at
    (s, q) stays finite.
    """
    if size < 0:
        raise ValueError("corpus size must be nonnegative")
    fields: list[tuple[str, SampledField]] = []
    for frac in GAUSSIAN_WIDTHS:
        if len(fields) >= size:
            return fields
        fields.append((f"gaussian-{frac:g}", gaussian_field(grid, frac * grid.L)))
    gap = grid.d / q - s
    if gap > 0:
        for beta in SINGULARITY_FRACTIONS:
            if len(fields) >= size:
                return fields
            try:
                fld = truncated_power_field(
                    grid, beta * gap, 4.0 * grid.h, grid.L / 4.0
                )
            except ValueError:
                break  # grid too coarse for the cutoffs; skip the family
            fields.append((f"power-{beta:g}", fld))
    envelopes = (0.5, 1.0, 2.0)
    idx = 0
    while len(fields) < size:
        env = envelopes[idx % len(envelopes)]
        fields.append(
            (
                f"band-{idx:03d}-env{env:g}",
                random_band_limited_field(grid, seed + idx, envelope=env),
            )
        )
        idx += 1
    return fields
