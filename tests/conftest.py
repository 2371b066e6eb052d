import collections

import numpy as np
import pytest

from hardylp.corpus import smooth_step
from hardylp.spectral_core import (
    WEIGHT_REFINE_FACTOR,
    WEIGHT_REFINE_RADIUS,
    Spectrum,
    _refined_weight,
    axis_coordinates,
    coordinate_mesh,
    frequency_radius,
    inverse_transform,
    make_field,
    make_grid,
    radius_mesh,
)

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counter of numpy.fft calls by function name, made while the test runs."""
    calls = collections.Counter()
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture(scope="session")
def grid1():
    return make_grid(1, 64, 1.0)


@pytest.fixture(scope="session")
def grid1_wide():
    return make_grid(1, 256, 20.0)


@pytest.fixture(scope="session")
def grid2():
    return make_grid(2, 64, 20.0)


@pytest.fixture(scope="session")
def grid3():
    return make_grid(3, 32, 20.0)


@pytest.fixture(scope="session")
def grid3_fine():
    return make_grid(3, 64, 20.0)


def direct_refined_weight(grid, centering, exponent):
    """The singular-weight table built cell by cell, the reference for
    _refined_weight: each cell within WEIGHT_REFINE_RADIUS * h of the origin
    averages |x|^exponent on its own midpoint subgrid, in box coordinates."""
    rad = radius_mesh(grid, centering)
    if np.any(rad == 0.0):
        if exponent < 0:
            raise ValueError(
                "a sample sits at |x| = 0; use a cell-centered grid for "
                "singular weights"
            )
        w = np.zeros(grid.shape)
        nz = rad > 0
        w[nz] = rad[nz] ** exponent
        if exponent == 0:
            w[~nz] = 1.0
        return w
    w = rad**exponent
    if exponent >= 0:
        return w
    h = grid.h
    near = rad <= WEIGHT_REFINE_RADIUS * h
    x = axis_coordinates(grid, centering)
    m = WEIGHT_REFINE_FACTOR
    off = (np.arange(m) + 0.5) / m * h - h / 2.0
    sub = np.meshgrid(*([off] * grid.d), indexing="ij")
    for idx in np.argwhere(near):
        center = [x[idx[ax]] for ax in range(grid.d)]
        rr = np.sqrt(sum((center[ax] + sub[ax]) ** 2 for ax in range(grid.d)))
        w[tuple(idx)] = float(np.mean(rr**exponent))
    return w


def direct_inner_ball_potential(g, s):
    """The inner-ball operator by direct pair quadrature, the reference for
    inner_ball_potential: U g(x) = |x|^(s-d) sums |g(y)| |y|^-s h^d over every
    sample y with |y| <= |x|/2.  Asserts the triangle-inequality guarantee
    |x - y| >= |x|/2 on every kernel support pair it integrates."""
    grid = g.grid
    d = grid.d
    mesh = coordinate_mesh(grid, g.centering)
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    radii = np.sqrt((pts**2).sum(axis=1))
    mag = np.abs(g.values).ravel()
    y_weight = mag * radii ** (-s)
    hd = grid.h**d
    out = np.empty(radii.size)
    y_norm2 = (pts**2).sum(axis=1)
    chunk = 256
    for start in range(0, radii.size, chunk):
        sl = slice(start, min(start + chunk, radii.size))
        xr = radii[sl]
        mask = radii[None, :] <= xr[:, None] / 2.0
        if mask.any():
            # |x - y|^2 = |x|^2 + |y|^2 - 2 x.y must be >= (|x|/2)^2 on the support
            cross = pts[sl] @ pts.T
            dist2 = xr[:, None] ** 2 + y_norm2[None, :] - 2.0 * cross
            bound2 = (xr[:, None] / 2.0) ** 2
            bad = mask & (dist2 < bound2 * (1.0 - 1e-9))
            if bad.any():
                raise AssertionError(
                    "triangle-inequality guarantee |x-y| >= |x|/2 violated on "
                    "the kernel support"
                )
        out[sl] = (mask * y_weight[None, :]).sum(axis=1) * hd * xr ** (s - d)
    return out.reshape(grid.shape)


def phased_band_limited_field(grid, seed, envelope=1.0, band=None):
    """Band-limited synthesis on the full complex lattice, the reference for
    corpus.random_band_limited_field: draws in C order over the annulus
    mask, the phase-carrying inverse_transform, then the real part scaled to
    peak 1."""
    if band is None:
        band = (2.0 / grid.L, grid.n / (8.0 * grid.L))
    lo, hi = band
    rad = frequency_radius(grid)
    mask = (rad >= lo * (1.0 - 1e-12)) & (rad <= hi * (1.0 + 1e-12))
    rng = np.random.default_rng(seed)
    coef = np.zeros(grid.shape, dtype=np.complex128)
    draws = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(
        int(mask.sum())
    )
    coef[mask] = draws * (rad[mask] / lo) ** (-envelope)
    vals = inverse_transform(Spectrum(grid, coef)).values.real
    return vals / np.max(np.abs(vals))


def mesh_gaussian(grid, sigma):
    """exp(-|x|^2 / (2 sigma^2)) on radius_mesh, the reference for
    corpus.gaussian_field."""
    r2 = radius_mesh(grid) ** 2
    return np.exp(-r2 / (2.0 * sigma**2))


def mesh_truncated_power(grid, exponent, r_inner, r_outer):
    """The cut power law on radius_mesh, the reference for
    corpus.truncated_power_field."""
    fall_end = min(2.0 * r_outer, 0.46 * grid.L)
    r = radius_mesh(grid)
    fall = smooth_step((fall_end - r) / (fall_end - r_outer))
    return (r_inner**2 + r**2) ** (-exponent / 2.0) * fall


def mesh_capped_power(grid, exponent, delta, taper):
    """(delta^2 + |x|^2)^(-exponent/2) exp(-|x|^2 / (2 taper^2)) on
    radius_mesh, the reference for the truncated-power trial of
    extremal._trial_field."""
    r2 = radius_mesh(grid) ** 2
    return (delta**2 + r2) ** (-exponent / 2.0) * np.exp(-r2 / (2.0 * taper**2))


def random_field(grid, seed, real=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if real:
        vals = vals.real
    return make_field(grid, vals)


def random_mean_zero_field(grid, seed, real=False):
    f = random_field(grid, seed, real=real)
    return f.with_values(f.values - np.mean(f.values))


LANCZOS_RTOL = 1e-12
LANCZOS_MAX_STEPS = 100


def discrete_hardy_ceiling(grid, s):
    """Exact supremum of the discretised fractional Hardy quotient at q = 2.

    For a mean-free real field f put g = |D|^s f.  The quotient
    ||f / |x|^s||_2 / || |D|^s f ||_2, with the program's cell-averaged
    weight W = |x|^-2s, is then the Rayleigh quotient of the symmetric
    operator A = |D|^-s W |D|^-s at g, so its supremum over all mean-free
    grid fields is sqrt(lambda_max(A)).  |D|^-s multiplies the half spectrum
    (rfftn) by |2 pi xi|^-s, with zero at xi = 0.  Lanczos with full
    reorthogonalisation from a fixed mean-free start vector runs until the top
    Ritz value changes by less than LANCZOS_RTOL relative, and raises when
    LANCZOS_MAX_STEPS pass first.  Returns sqrt(lambda_max) and the top Ritz
    vector g, with unit norm.
    """
    axes = tuple(range(grid.d))
    freqs = [np.fft.fftfreq(grid.n, d=grid.h)] * (grid.d - 1)
    freqs.append(np.fft.rfftfreq(grid.n, d=grid.h))
    rad = np.sqrt(sum(k**2 for k in np.meshgrid(*freqs, indexing="ij", sparse=True)))
    mult = np.zeros(rad.shape)
    nz = rad > 0
    mult[nz] = (2.0 * np.pi * rad[nz]) ** -s
    weight = _refined_weight(grid, "cell", -2.0 * s)

    def riesz(v):
        return np.fft.irfftn(np.fft.rfftn(v) * mult, s=grid.shape, axes=axes)

    v = np.random.default_rng(0).standard_normal(grid.shape)
    v -= v.mean()
    basis = [v / np.linalg.norm(v)]
    alpha, beta = [], []
    previous = None
    for _ in range(LANCZOS_MAX_STEPS):
        u = riesz(weight * riesz(basis[-1]))
        alpha.append(float(np.vdot(basis[-1], u)))
        for sweep in range(2):  # Gram-Schmidt twice keeps the basis orthogonal
            for b in basis:
                u -= np.vdot(b, u) * b
        tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        ritz, vecs = np.linalg.eigh(tri)
        lam = ritz[-1]
        if previous is not None and abs(lam - previous) < LANCZOS_RTOL * lam:
            top = sum(c * b for c, b in zip(vecs[:, -1], basis))
            return float(np.sqrt(lam)), top / np.linalg.norm(top)
        previous = lam
        beta.append(np.linalg.norm(u))
        basis.append(u / beta[-1])
    raise RuntimeError(
        f"Lanczos did not converge to rtol {LANCZOS_RTOL:g} "
        f"in {LANCZOS_MAX_STEPS} steps"
    )
