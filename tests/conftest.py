import numpy as np
import pytest

from hardylp.spectral_core import (
    WEIGHT_REFINE_FACTOR,
    WEIGHT_REFINE_RADIUS,
    _refined_weight,
    axis_coordinates,
    make_field,
    make_grid,
    radius_mesh,
)


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
