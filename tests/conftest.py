import collections
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hardylp.spectral_core as spectral_core
from hardylp.corpus import (
    gaussian_field,
    random_band_limited_field,
    smooth_step,
    truncated_power_field,
)
from hardylp.extremal import _BudgetExhausted, _radial_profile, _Search
from hardylp.hardy import CHECKS, NOISE_FLOOR, FieldValues, shell_index_mesh, shell_radii
from hardylp.littlewood_paley import LevelSums, decompose, group_sums
from hardylp.report import QUADRATURE_TOL
from hardylp.spectral_core import (
    POWER_SAFE_LOG2,
    WEIGHT_REFINE_FACTOR,
    WEIGHT_REFINE_RADIUS,
    Spectrum,
    _apply_diag,
    _gradient_symbols,
    _lq,
    _radial_values,
    _refined_weight,
    axis_coordinates,
    coordinate_mesh,
    frequency_axes,
    frequency_radius,
    inverse_transform,
    make_field,
    make_grid,
    radius_mesh,
)
from hardylp.stein_weiss import RadialProfile, geometric_radii

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


@pytest.fixture
def reflections(monkeypatch):
    """The octants that fields built from them reflect onto the whole grid
    (spectral_core._reflected), collected while the test runs."""
    reflect, seen = spectral_core._reflected, []

    def logged(octant):
        seen.append(octant)
        return reflect(octant)

    monkeypatch.setattr(spectral_core, "_reflected", logged)
    return seen


@pytest.fixture
def call_log(monkeypatch):
    """call_log(module, name) wraps module.name, while the test runs, in every
    hardylp module that binds the same function (a from-import copies the
    binding), and returns the list that collects each call's positional
    arguments."""

    def install(module, name):
        inner = getattr(module, name)
        calls = []

        def logged(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hardylp") and (
                getattr(mod, name, None) is inner
            ):
                monkeypatch.setattr(mod, name, logged)
        return calls

    return install


def full_grid(f):
    """f on the whole grid: a new field with f's samples, box and centering
    whose octant is forced to None, so that every operator reads all of its
    samples even when f is even in every coordinate.  The reference for the
    octant path (SampledField.octant)."""
    g = replace(f, values=f.values)
    vars(g)["octant"] = None
    return g


def check(name, f, s, q, part=None, tol=QUADRATURE_TOL, full=False):
    """The check hardy.CHECKS[name] on f alone, run on a FieldValues that
    reads what the entry declares; part None is the grid's default
    partition.  full runs it on full_grid(f), the reference for the octant
    path of an f even in every coordinate."""
    entry = CHECKS[name]
    values = FieldValues(full_grid(f) if full else f, s, q, part, entry.powers(q), entry.shells)
    return entry.run(values, tol)


def power_formula(x, p):
    """spectral_core._raise's rule written out: x^p as products for p in
    {2, 3, 4}, np.power for any other p."""
    if p == 2:
        return x * x
    if p == 3:
        return x * x * x
    if p == 4:
        return (x * x) * (x * x)
    return np.power(x, p)


def lq_formula(values, cell_volume, q, weight=1.0):
    """spectral_core._lq's rule at finite q written out: |values| to the power
    q by power_formula, scaled by its maximum before the power, and the
    maximum multiplied back after the root, only when max^q would leave
    2^(+-POWER_SAFE_LOG2)."""
    absq = np.abs(values)
    top = float(absq.max())
    if top == 0.0 or abs(q * np.log2(top)) <= POWER_SAFE_LOG2:
        top = 1.0
    total = (power_formula(absq / top, q) * weight).sum() * cell_volume
    return top * float(total ** (1.0 / q))


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


def direct_refined_weight(grid, exponent, x):
    """The singular-weight table built cell by cell on the mesh of the axis
    coordinates x, as _build_weight takes them, the reference for
    _refined_weight: each cell within WEIGHT_REFINE_RADIUS * h of the origin
    averages |x|^exponent on its own midpoint subgrid, in box coordinates."""
    rad = np.sqrt(sum(c**2 for c in np.meshgrid(*([x] * grid.d), indexing="ij")))
    if np.any(rad == 0.0):
        if exponent < 0:
            raise ValueError(
                "a sample sits at |x| = 0; use a cell-centered grid for "
                "singular weights"
            )
        w = np.zeros(rad.shape)
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
    m = WEIGHT_REFINE_FACTOR
    off = (np.arange(m) + 0.5) / m * h - h / 2.0
    sub = np.meshgrid(*([off] * grid.d), indexing="ij")
    for idx in np.argwhere(near):
        center = [x[idx[ax]] for ax in range(grid.d)]
        rr = np.sqrt(sum((center[ax] + sub[ax]) ** 2 for ax in range(grid.d)))
        w[tuple(idx)] = float(np.mean(rr**exponent))
    return w


def reflected_weight(grid, exponent):
    """The whole grid's table of |x|^exponent: _refined_weight's octant
    reflected onto every block, the table the program's sums read."""
    return np.pad(_refined_weight(grid, exponent), (grid.n // 2, 0), "symmetric")


def mesh_class_refined_weight(grid, centering, exponent):
    """_refined_weight's table with every scan over the whole mesh, the
    bitwise reference for the build that scans the sub-cube around the
    origin: the zero test, the near cells (np.argwhere) and the power of the
    radius all run on the full mesh; each near cell takes its symmetry
    class's average on the unit cell, scaled by h^exponent."""
    rad = radius_mesh(grid, centering)
    if np.any(rad == 0.0):
        return direct_refined_weight(grid, exponent, axis_coordinates(grid, centering))
    w = rad**exponent
    if exponent >= 0:
        return w
    h = grid.h
    near = np.argwhere(rad <= WEIGHT_REFINE_RADIUS * h)
    x = axis_coordinates(grid, centering) / h
    keys = np.sort(np.rint(2.0 * np.abs(x[near])).astype(np.int64), axis=1)
    classes, inverse = np.unique(keys, axis=0, return_inverse=True)
    off = (np.arange(WEIGHT_REFINE_FACTOR) + 0.5) / WEIGHT_REFINE_FACTOR - 0.5
    sub = np.meshgrid(*([off] * grid.d), indexing="ij")
    sq = (sum((u / 2.0 + o) ** 2 for u, o in zip(c, sub)) for c in classes)
    means = np.array([np.mean(np.sqrt(r) ** exponent) for r in sq])
    w[tuple(near.T)] = means[inverse.ravel()] * h**exponent
    return w


def peak_field_arrays(fn, nbytes):
    """The peak memory traced while fn runs, in field arrays of nbytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / nbytes
    finally:
        tracemalloc.stop()


def dd_gradient(f):
    """The spectral gradient by d-D transforms, a reference for
    spectral_core.gradient: one forward rfftn (fftn when f is complex), then
    per component a d-D inverse of the spectrum times 2 pi i xi_j, each made
    when it is taken."""
    return _apply_diag(f.values, _gradient_symbols(f))


def line_gradient(f):
    """The spectral gradient by one whole-array 1-D transform pair per axis,
    the reference for spectral_core's derivative-matrix path: rfft along
    axis j, times 2 pi i xi_j with its Nyquist entry zero, and irfft (fft
    and ifft with the whole symbol when f is complex); each component made
    when it is taken."""
    real = np.isrealobj(f.values)
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    half = slice(0, f.grid.n // 2 + 1 if real else None)
    for ax, k in enumerate(_gradient_symbols(f)):
        k = k[(slice(None),) * ax + (half,)]
        yield inv(fwd(f.values, axis=ax) * k, f.grid.n, axis=ax)


# The constant search's two radial trial families, one point of each
RADIAL_TRIALS = (
    {"family": "gaussian", "width_fraction": 0.07},
    {"family": "truncated-power", "exponent_fraction": 0.75, "inner_cells": 2.2,
     "outer_fraction": 0.08},
)


def trial_field(grid, q, seed, params):
    """The whole field of a search trial: a radial profile on the full mesh,
    or the band-limited field of the seed."""
    profile = _radial_profile(grid, q, params)
    if profile is None:
        return random_band_limited_field(grid, seed, envelope=params["envelope"])
    return make_field(grid, _radial_values(grid, profile))


class DirectSearch(_Search):
    """The constant search with no table of quotients, the reference for
    extremal._Search: evaluate calls the objective at every point of the
    sequence, a point met again included."""

    def evaluate(self, params: dict) -> float:
        if self.count >= self.budget:
            raise _BudgetExhausted
        self.count += 1
        value = self.objective(params)
        if value > self.best:
            self.best = value
            self.best_params = dict(params)
        return value


def full_field_boundary_decay(f):
    """boundary_decay from |f| of the whole field, the reference for the
    version that takes |f| of the 2d faces only."""
    mags = np.abs(f.values)
    faces = [np.take(mags, i, axis=ax) for ax in range(f.grid.d) for i in (0, -1)]
    return max(float(face.max()) for face in faces)


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


def radial_average_profile(f):
    """Spherical averages of |f| binned onto geometric_radii (nearest bin in
    log radius); bins with no samples interpolate from their neighbours.
    The reference for the one-ray reduction of the inner-ball operator."""
    radii = geometric_radii(f.grid)
    r = radius_mesh(f.grid, f.centering).ravel()
    mag = np.abs(f.values).ravel()
    edges = np.sqrt(radii[:-1] * radii[1:])
    idx = np.searchsorted(edges, r)
    sums = np.bincount(idx, weights=mag, minlength=radii.size)
    counts = np.bincount(idx, minlength=radii.size)
    filled = counts > 0
    values = np.zeros(radii.size)
    values[filled] = sums[filled] / counts[filled]
    if not filled.all() and filled.any():
        values[~filled] = np.interp(
            np.log(radii[~filled]), np.log(radii[filled]), values[filled]
        )
    return RadialProfile(radii=radii, values=values)


def lp_stack(f, partition):
    """The (levels, *shape) stack of the pieces P_N f of decompose."""
    return np.stack(list(decompose(f, partition)))


def masked_power_symbol(grid, s, real):
    """|2 pi xi|^s built as zeros with the power taken on the nonzero radii
    through a boolean mask, the reference for spectral_core._power_symbol."""
    k = frequency_axes(grid)
    half = k[: grid.n // 2 + 1] if real else k
    mesh = np.meshgrid(*([k] * (grid.d - 1) + [half]), indexing="ij", sparse=True)
    rad = np.sqrt(sum(c**2 for c in mesh))
    mult = np.zeros(rad.shape)
    nz = rad > 0
    mult[nz] = (2.0 * np.pi * rad[nz]) ** s
    return mult


def ordered_level_sums(f, partition, s, p=2.0, powers=(), groups=None):
    """littlewood_paley.level_sums with each level's p-th power taken as an
    array of its own before the other powers, p's running sum first, the
    reference for the pass that raises the level to p in place last."""
    hd = f.grid.h**f.grid.d
    totals = dict.fromkeys(sorted(powers, key=lambda r: r != p))  # p first
    norms, maxima, shells = [], [], []
    pieces = decompose(f, partition)
    for N in partition.levels:
        level = next(pieces)
        level = np.abs(level, out=level) if np.isrealobj(level) else np.abs(level)
        level *= N**s
        top = float(level.max(initial=0.0))
        level_p = level if p == np.inf else power_formula(level, p)
        maxima.append(top)
        norms.append(top if p == np.inf else float((level_p.sum() * hd) ** (1.0 / p)))
        if groups is not None:
            shells.append(group_sums(level_p, groups))
        for r, total in totals.items():
            term = level if r == np.inf else level_p
            if r not in (p, np.inf):
                term = power_formula(level, r)
            if total is None:
                totals[r] = term
            elif r == np.inf:
                np.maximum(total, term, out=total)
            else:
                total += term
    shells = np.array(shells) if groups is not None else None
    return LevelSums(p, hd, np.array(norms), np.array(maxima), totals, shells)


# The materialised-stack path, the oracle for littlewood_paley.level_sums:
# the whole weighted stack N^s |P_N f| is built, and every reader takes all
# of its levels at once.


def weighted_stack(f, partition, s):
    """The real stack N^s |P_N f|, from one decomposition of f."""
    stack = np.abs(lp_stack(f, partition))
    powers = np.array([N**s for N in partition.levels])
    stack *= powers.reshape((-1,) + (1,) * f.grid.d)
    return stack


def stack_level_norms(f, stack, p):
    """The L^p norm on f's grid of each level of a stack, by power_formula with
    no scaling before the power, as the level pass takes it in range."""
    hd = f.grid.h**f.grid.d
    sums = [power_formula(level, p).sum() * hd for level in stack]
    return np.array([float(total ** (1.0 / p)) for total in sums])


def stack_lr_sum(stack, r):
    """The l^r sum over the first axis; the max when r is infinite."""
    if r == np.inf:
        return stack.max(axis=0, initial=0.0)
    return power_formula(stack, r).sum(axis=0) ** (1.0 / r)


def stack_besov_norm(f, stack, p, q):
    return lq_formula(stack_level_norms(f, stack, p), 1.0, q)


def stack_triebel_lizorkin_norm(f, stack, p, r):
    return _lq(stack_lr_sum(stack, r), f.grid.h**f.grid.d, p)


def stack_holder_sides(f, stack, q):
    """(lhs, mid, rhs) of holder_refinement_check from the stack."""
    hd = f.grid.h**f.grid.d
    t = power_formula(stack, q).sum(axis=0)
    a = power_formula(stack, 2.0).sum(axis=0)
    b = power_formula(stack, 2.0 * (q - 1.0)).sum(axis=0)
    lhs = float(t.sum() * hd)
    mid = float(np.sqrt(a * b).sum() * hd)
    rhs = float(
        ((a ** (q / 2.0)).sum() * hd) ** (1.0 / q)
        * ((b ** (q / (2.0 * (q - 1.0)))).sum() * hd) ** ((q - 1.0) / q)
    )
    return lhs, mid, rhs


def stack_shell_sums(f, stack, q):
    """The (levels, shells) sums of stack^q over each shell of
    shell_index_mesh, one boolean mask per shell."""
    shell_idx = shell_index_mesh(f.grid, f.centering)
    shells = range(len(shell_radii(f.grid)))
    return np.array(
        [[power_formula(level, q)[shell_idx == j].sum() for j in shells]
         for level in stack]
    )


def stack_localization_constant(f, partition, s, q):
    """E_b of shell_chain_check's link (b), from the stack of f, with the
    noise floor of f - mean."""
    d = f.grid.d
    f0 = f.with_values(f.values - np.mean(f.values))
    stack = weighted_stack(f, partition, s)
    norms = stack_level_norms(f, stack, q)
    sums = stack_shell_sums(f, stack, q)
    floor = NOISE_FLOOR * float(np.max(np.abs(f0.values), initial=0.0))
    e_b = 0.0
    for N, level, c, masses in zip(partition.levels, stack, norms, sums):
        if level.max(initial=0.0) <= floor * N**s:
            continue
        for R, mass in zip(shell_radii(f.grid), masses):
            shell_lq = float((mass * f.grid.h**d) ** (1.0 / q))
            cap = min(1.0, (N * R) ** (d / q)) * c
            if cap > 0:
                e_b = max(e_b, shell_lq / cap)
    return e_b


def shell_majorant_sides(f, s, q):
    """(lhs, rhs, shell masses) of shell_chain_check's link (a) by whole-array
    expressions of f - mean on the whole grid and one boolean mask per shell,
    the reference for its one-buffer form and for an even f's octant."""
    hd = f.grid.h**f.grid.d
    absq = power_formula(np.abs(f.values - np.mean(f.values)), q)
    lhs = float((absq * radius_mesh(f.grid, f.centering) ** (-s * q)).sum() * hd)
    shell_idx = shell_index_mesh(f.grid, f.centering)
    masses = [absq[shell_idx == j].sum() * hd for j in range(len(shell_radii(f.grid)))]
    majorant = float(sum(R ** (-s * q) * m for R, m in zip(shell_radii(f.grid), masses)))
    return lhs, 2.0 ** (s * q) * majorant, np.array(masses)


def radial_family_fields(grid, s, q):
    """One field of each radial family of the corpus on grid: a Gaussian and
    a power law of exponent 0.35 (d/q - s), each even in every coordinate."""
    return (
        gaussian_field(grid, 0.075 * grid.L),
        truncated_power_field(grid, 0.35 * (grid.d / q - s), 2.5 * grid.h, grid.L / 5),
    )


def without_box(f):
    """f's samples alone, as a field that carries no box spectrum: every
    operator on it takes the forward FFT of the samples, the reference for the
    box path of a band-limited field."""
    return make_field(f.grid, f.values, f.centering)


def phased_band_limited_field(grid, seed, envelope=1.0):
    """Band-limited synthesis on the full complex lattice, the reference for
    corpus.random_band_limited_field: draws in C order over the annulus
    2/L <= |xi| <= n/(8L), the phase-carrying inverse_transform, then the
    real part scaled to peak 1."""
    lo, hi = 2.0 / grid.L, grid.n / (8.0 * grid.L)
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
    extremal._radial_profile."""
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
    weight = reflected_weight(grid, -2.0 * s)

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
