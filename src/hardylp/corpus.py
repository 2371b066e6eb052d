"""Reproducible test-field families.

Three families cover rough and smooth profiles: fixed-seed random
band-limited fields (complex Gaussian coefficients under a power-law
envelope, synthesized real), centered Gaussians scaled to decay below 1e-8
at the box faces, and truncated power laws with smooth radial cutoffs.
Every field is a deterministic function of (grid, seed, index).

The radial families are evaluated once per radial class of the
cell-centred grid and gathered onto the mesh.  A band-limited field's
coefficients are laid on the annulus' bounding box, whose half spectrum
takes the box plus its mirror (the Hermitian part), and it is synthesized
by one real inverse FFT pruned to that box.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .littlewood_paley import smooth_step
from .spectral_core import (
    GridSpec,
    SampledField,
    _box_indices,
    _inverse_real,
    _phase_1d,
    _radial_values,
    _radius,
    frequency_axes,
)

__all__ = [
    "gaussian_field",
    "truncated_power_field",
    "random_band_limited_field",
    "corpus_fields",
]

# Gaussian widths as a fraction of L.  On the outermost sample layer, at
# L/2 - h/2, sigma = 0.075 L stays below 1e-8 for every n >= 16; sigma = 0.08 L
# does only for n >= 64, and reaches 1.03e-8 to 1.1e-8 at n = 32 (d = 4 to 1).
GAUSSIAN_WIDTHS = (0.075, 0.08)
SINGULARITY_FRACTIONS = (0.35, 0.6)


def _gaussian_profile(sigma: float):
    """The profile r -> exp(-r^2 / (2 sigma^2)) of gaussian_field."""
    if sigma <= 0:
        raise ValueError("width must be positive")
    return lambda r: np.exp(-(r**2) / (2.0 * sigma**2))


def gaussian_field(grid: GridSpec, sigma: float) -> SampledField:
    """exp(-|x|^2 / (2 sigma^2)) centered in the box."""
    return SampledField(grid, _radial_values(grid, _gaussian_profile(sigma)))


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
    grid: GridSpec, seed: int, envelope: float = 1.0
) -> SampledField:
    """Real field with random spectrum on the annulus 2/L <= |xi| <= n/(8L).

    Coefficients are complex Gaussian draws damped by (|xi| L / 2)^-envelope,
    drawn over the lattice points of the annulus in C order; the synthesized
    field is the real part, so the spectrum stays inside the (symmetric)
    annulus and the mean vanishes.  The annulus is empty, and refused, for
    n < 16.  The real part of sum_k g_k e^(2 pi i k x) has coefficients
    (g_k + conj g_-k) / 2, the half spectrum of the box of g plus its mirror.
    The support is built once per grid and the draws once per seed.
    """
    K, annulus, ratio = _band_support(grid)
    box = np.zeros(annulus.shape, dtype=np.complex128)
    box[annulus] = _band_draws(grid, seed) * ratio ** (-envelope)
    axis = _box_indices(grid.n, K)
    phase = _phase_1d(grid, "cell").conj()[axis]  # those of inverse_transform
    for ax in range(grid.d):
        box *= phase.reshape((-1,) + (1,) * (grid.d - 1 - ax))
    box *= grid.size / 2.0
    mirror = np.roll(np.arange(axis.size)[::-1], 1)  # the place of -k in the box
    spec = box[np.ix_(*(mirror,) * (grid.d - 1), mirror[: K + 1])]
    np.conjugate(spec, out=spec)
    spec += box[..., : K + 1]
    vals = _inverse_real(spec, grid.n, K)
    peak = max(vals.max(), -vals.min())  # max |vals|, with no |vals| array
    if peak > 0:
        vals /= peak
    return SampledField(grid, vals)


@lru_cache(maxsize=2)
def _band_support(grid: GridSpec):
    """The seed- and envelope-free part of random_band_limited_field: the
    box |k_i| <= K = n // 8 of the annulus, which 4K <= n lets the inverse
    prune to; the annulus as a read-only mask on that box (_box_indices on
    every axis, whose ascending indices keep the lattice's C order); and
    |xi| L / 2 at its points."""
    lo, hi = 2.0 / grid.L, grid.n / (8.0 * grid.L)
    if grid.n < 16:
        raise ValueError(
            f"band-limited corpus fields need n >= 16, got n = {grid.n}: "
            f"the default band (2/L, n/(8L)) = {(lo, hi)} is empty"
        )
    K = grid.n // 8
    rad = _radius([frequency_axes(grid)[_box_indices(grid.n, K)]] * grid.d)
    annulus = (rad >= lo * (1.0 - 1e-12)) & (rad <= hi * (1.0 + 1e-12))
    annulus.setflags(write=False)
    return K, annulus, rad[annulus] / lo


@lru_cache(maxsize=2)
def _band_draws(grid: GridSpec, seed: int):
    """The complex Gaussian draws at the annulus points, in C order."""
    count = _band_support(grid)[2].size
    rng = np.random.default_rng(seed)
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


def corpus_fields(grid: GridSpec, size: int, seed: int, s: float = 1.0, q: float = 2.0):
    """Deterministic corpus of `size` labelled fields on one grid, each built
    when the caller takes it.

    Two Gaussians and (when the grid can hold the cutoffs) two truncated
    power laws lead; random band-limited fields fill the rest.  Power
    exponents are fractions of d/q - s so the continuum weighted norm at
    (s, q) stays finite.
    """
    if size < 0:
        raise ValueError("corpus size must be nonnegative")
    if not q > 0:  # before the power exponents divide by it
        raise ValueError(f"corpus exponent q must be positive, got q = {q}")
    for frac in GAUSSIAN_WIDTHS[:size]:
        yield f"gaussian-{frac:g}", gaussian_field(grid, frac * grid.L)
    built = min(size, len(GAUSSIAN_WIDTHS))
    gap = grid.d / q - s
    for beta in SINGULARITY_FRACTIONS[: size - built] if gap > 0 else ():
        try:
            fld = truncated_power_field(grid, beta * gap, 4.0 * grid.h, grid.L / 4.0)
        except ValueError:
            break  # grid too coarse for the cutoffs; skip the family
        built += 1
        yield f"power-{beta:g}", fld
        del fld  # else it outlives the consumer's copy, through the band fields
    envelopes = (0.5, 1.0, 2.0)
    for idx in range(size - built):
        env = envelopes[idx % len(envelopes)]
        yield f"band-{idx:03d}-env{env:g}", random_band_limited_field(
            grid, seed + idx, envelope=env
        )
