"""Grid construction, transforms, multipliers, fractional operators, norms."""

import math
import struct

import numpy as np
import pytest

from conftest import (
    dd_gradient,
    direct_refined_weight,
    full_field_boundary_decay,
    line_gradient,
    lq_formula,
    masked_power_symbol,
    mesh_class_refined_weight,
    peak_field_arrays,
    power_formula,
    random_field,
    random_mean_zero_field,
    reflected_weight,
)
from hardylp.corpus import gaussian_field
from hardylp.littlewood_paley import build_partition, decompose, project
from hardylp.spectral_core import (
    GRADIENT_MATRIX_N,
    MAX_GRID_SAMPLES,
    POWER_CHUNK,
    WEIGHT_REFINE_RADIUS,
    Spectrum,
    _box_length_range,
    _build_weight,
    _component,
    _derivative_matrix,
    _even_inverse,
    _even_octant,
    _even_transform,
    _forward,
    _gradient_symbols,
    _half_box,
    _inverse_real,
    _lq,
    _matrix_partial,
    _parseval_energy,
    _power_symbol,
    _pruned,
    _radial_values,
    _radius_power,
    _raise,
    _refined_weight,
    apply_multiplier,
    axis_coordinates,
    boundary_decay,
    coordinate_mesh,
    forward_transform,
    fractional_laplacian,
    frequency_mesh,
    frequency_radius,
    gradient,
    gradient_magnitude,
    inverse_transform,
    lq_norm,
    make_field,
    make_grid,
    power_weighted_lq_norm,
    radius_mesh,
    read_field,
    riesz_transform,
    sobolev_norm,
    weighted_lq_norm,
    write_field,
)

# analytic: int_0^1 cos^2(2 pi x) dx = 1/2, cross-checked against a dense
# 2e6-point trapezoid oracle (0.7071067811865476)
COS_L2 = 0.7071067811865476

# radial quadrature oracle 4 pi int_0^inf exp(-r^2) dr = 2 pi^(3/2)
GAUSS_WEIGHTED_SQ = 11.136655993663414


def dense_cos_l2_oracle():
    xs = np.linspace(0.0, 1.0, 200_001)
    return np.sqrt(np.trapezoid(np.cos(2 * np.pi * xs) ** 2, xs))


# --- grids ----------------------------------------------------------------


def test_make_grid_basic():
    g = make_grid(1, 8, 1.0)
    assert g.h == 0.125
    assert g.size == 8


def test_make_grid_3d_count():
    g = make_grid(3, 64, 20.0)
    assert g.size == 262144


@pytest.mark.parametrize("bad", [12, 20, 7, 0])
def test_make_grid_rejects_non_power_of_two(bad):
    with pytest.raises(ValueError):
        make_grid(2, bad, 1.0)


def test_make_grid_rejects_bad_dimension():
    for d in (0, 5, -1):
        with pytest.raises(ValueError):
            make_grid(d, 16, 1.0)


def test_make_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        make_grid(1, 16, 0.0)


@pytest.mark.parametrize("L", [np.inf, np.nan])
def test_make_grid_rejects_non_finite_length(L):
    with pytest.raises(ValueError, match="positive and finite"):
        make_grid(1, 16, L)


def test_make_grid_refuses_oversized_grids():
    # the check is arithmetic on n and d: no array of the refused size exists
    for d, n in ((4, 128), (3, 512), (2, 8192), (1, 2**25)):
        with pytest.raises(ValueError, match="samples"):
            make_grid(d, n, 20.0)
    for d, n in ((4, 64), (3, 256), (2, 4096), (1, 2**24)):
        assert make_grid(d, n, 20.0).size == MAX_GRID_SAMPLES


@pytest.mark.parametrize("centering", ["cell", "lattice"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_radii_match_dense_mesh_bitwise(d, centering):
    grid = make_grid(d, 8, 3.0)
    dense = np.sqrt(sum(c**2 for c in coordinate_mesh(grid, centering)))
    assert np.array_equal(radius_mesh(grid, centering), dense)
    dense = np.sqrt(sum(k**2 for k in frequency_mesh(grid)))
    assert np.array_equal(frequency_radius(grid), dense)
    for s in (0.5, -1.0):
        full = _power_symbol(grid, s, False)
        assert full.shape == grid.shape
        assert np.array_equal(_power_symbol(grid, s, True), full[..., : grid.n // 2 + 1])


def test_frequency_lattice_symmetric(grid1):
    from hardylp.spectral_core import frequency_axes

    k = np.sort(frequency_axes(grid1) * grid1.L)
    assert k[0] == -grid1.n / 2
    assert k[-1] == grid1.n / 2 - 1


# --- transforms -----------------------------------------------------------


def test_constant_field_transform(grid1):
    spec = forward_transform(make_field(grid1, np.full(64, 2.5)))
    assert spec.coefficients.flat[0] == pytest.approx(2.5, abs=1e-14)
    assert np.abs(spec.coefficients.ravel()[1:]).max() < 1e-14


def test_single_mode_transform(grid1):
    x = axis_coordinates(grid1)
    spec = forward_transform(make_field(grid1, np.exp(2j * np.pi * x / grid1.L)))
    k = np.fft.fftfreq(grid1.n) * grid1.n
    coef = spec.coefficients[k == 1][0]
    assert abs(coef - 1.0) < 1e-13
    rest = spec.coefficients[k != 1]
    assert np.abs(rest).max() < 1e-13


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16), (4, 8)])
def test_round_trip_all_dimensions(dim, n):
    g = make_grid(dim, n, 3.0)
    f = random_field(g, seed=dim)
    back = inverse_transform(forward_transform(f))
    scale = np.abs(f.values).max()
    assert np.abs(back.values - f.values).max() < 1e-12 * scale


def test_round_trip_lattice_centering(grid1):
    rng = np.random.default_rng(5)
    f = make_field(grid1, rng.standard_normal(64), centering="lattice")
    back = inverse_transform(forward_transform(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_parseval(grid2):
    f = random_field(grid2, seed=11)
    spec = forward_transform(f)
    space = (np.abs(f.values) ** 2).sum() * grid2.h**grid2.d
    freq = (np.abs(spec.coefficients) ** 2).sum() * grid2.L**grid2.d
    assert abs(space - freq) < 1e-10 * space


def test_real_field_stays_real_after_round_trip(grid2):
    f = random_field(grid2, seed=3, real=True)
    back = inverse_transform(forward_transform(f))
    values = back.values
    assert np.abs(values.imag).max() <= 1e-12 * max(1, np.abs(values).max())


# --- multipliers ----------------------------------------------------------


def test_identity_multiplier(grid1):
    f = random_field(grid1, seed=1)
    out = apply_multiplier(f, lambda xi: np.ones_like(xi))
    assert np.abs(out.values - f.values).max() < 1e-12 * np.abs(f.values).max()


def test_zero_multiplier(grid1):
    f = random_field(grid1, seed=2)
    out = apply_multiplier(f, lambda xi: np.zeros_like(xi))
    assert np.abs(out.values).max() < 1e-13


def test_multiplier_composition(grid2):
    f = random_field(grid2, seed=4)
    m1 = lambda x, y: 1.0 / (1.0 + x**2 + y**2)
    m2 = lambda x, y: np.exp(-(x**2 + y**2))
    once = apply_multiplier(f, lambda x, y: m1(x, y) * m2(x, y))
    twice = apply_multiplier(apply_multiplier(f, m2), m1)
    scale = np.abs(f.values).max()
    assert np.abs(once.values - twice.values).max() < 1e-12 * scale


def test_multiplier_nonfinite_diagnostic(grid1):
    f = random_field(grid1, seed=6)
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="frequency"):
            apply_multiplier(f, lambda xi: 1.0 / xi)


def phased_multiplier(f, m):
    """The direct path: m applied between the phase-carrying public transforms."""
    coef = forward_transform(f).coefficients * m
    return inverse_transform(Spectrum(f.grid, coef, f.centering)).values


@pytest.mark.parametrize("centering", ["cell", "lattice"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_diagonal_multipliers_match_phased_transforms(d, centering):
    # a random complex field carries content at the Nyquist frequency, where
    # the odd symbols of the gradient and the Riesz transforms are not real
    grid = make_grid(d, 16, 20.0)
    f = make_field(grid, random_mean_zero_field(grid, seed=90 + d).values, centering)
    mesh = frequency_mesh(grid)
    rad = frequency_radius(grid)
    nz = rad > 0
    inv_rad = np.zeros(grid.shape)
    inv_rad[nz] = 1.0 / rad[nz]
    cases = []
    for s in (0.5, -0.5):
        power = np.zeros(grid.shape)
        power[nz] = (2 * np.pi * rad[nz]) ** s
        cases.append((fractional_laplacian(f, s).values, power))
    for j in range(1, d + 1):
        cases.append((riesz_transform(f, j).values, -1j * mesh[j - 1] * inv_rad))
    for g, k in zip(gradient(f), mesh):
        cases.append((g.values, 2j * np.pi * k))
    m = lambda *xi: np.exp(-sum(x**2 for x in xi)) + 1j * xi[0]
    cases.append((apply_multiplier(f, m).values, m(*mesh)))
    part = build_partition(grid, coverage=1.0)
    for N, piece in zip(part.levels, decompose(f, part)):
        cases.append((piece, part.multiplier(N)))
        cases.append((project(f, part, N).values, part.multiplier(N)))
    for got, mult in cases:
        want = phased_multiplier(f, mult)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def nyquist_zeroed(grid, ax, symbol):
    """The lattice symbol with its values on the Nyquist plane k_ax = -n/2
    set to zero."""
    out = np.array(np.broadcast_to(symbol, grid.shape))
    plane = [slice(None)] * grid.d
    plane[ax] = grid.n // 2
    out[tuple(plane)] = 0.0
    return out


@pytest.mark.parametrize("centering", ["cell", "lattice"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_real_diagonal_multipliers_match_phased_transforms(d, centering):
    # real white noise carries content on every Nyquist plane; the real path
    # keeps even symbols and zeroes odd ones there
    grid = make_grid(d, 16, 20.0)
    noise = random_mean_zero_field(grid, seed=190 + d, real=True).values
    f = make_field(grid, noise, centering)
    assert f.values.dtype == np.float64
    coef = forward_transform(f).coefficients
    for ax in range(d):
        assert np.abs(np.take(coef, grid.n // 2, axis=ax)).max() > 1e-3
    mesh = frequency_mesh(grid)
    rad = frequency_radius(grid)
    nz = rad > 0
    inv_rad = np.zeros(grid.shape)
    inv_rad[nz] = 1.0 / rad[nz]
    cases = []
    for s in (0.5, -0.5):
        power = np.zeros(grid.shape)
        power[nz] = (2 * np.pi * rad[nz]) ** s
        cases.append((fractional_laplacian(f, s).values, power))
    part = build_partition(grid, coverage=1.0)
    for N, piece in zip(part.levels, decompose(f, part)):
        cases.append((piece, part.multiplier(N)))
        cases.append((project(f, part, N).values, part.multiplier(N)))
    odd = [
        (ax, riesz_transform(f, ax + 1).values, -1j * mesh[ax] * inv_rad) for ax in range(d)
    ]
    odd += [(ax, g.values, 2j * np.pi * mesh[ax]) for ax, g in enumerate(gradient(f))]
    for ax, got, mult in odd:
        want = phased_multiplier(f, mult)
        # the complex path keeps the Nyquist plane, and differs there
        assert np.abs(got - want).max() > 1e-3 * np.abs(want).max()
        cases.append((got, nyquist_zeroed(grid, ax, mult)))
    magnitude = np.sqrt(sum(np.abs(g.values) ** 2 for g in gradient(f)))
    assert np.array_equal(gradient_magnitude(f), magnitude)
    for got, mult in cases:
        want = phased_multiplier(f, mult)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_generic_multiplier_on_real_field_takes_complex_path(d):
    # exp(-|xi|^2) (1 + xi_1) is real but not even, so not Hermitian
    grid = make_grid(d, 16, 20.0)
    f = random_field(grid, seed=290 + d, real=True)
    m = lambda *xi: np.exp(-sum(x**2 for x in xi)) * (1.0 + xi[0])
    out = apply_multiplier(f, m)
    assert out.values.dtype == np.complex128
    complex_path = apply_multiplier(make_field(grid, f.values.astype(complex)), m)
    assert np.array_equal(out.values, complex_path.values)
    want = phased_multiplier(f, m(*frequency_mesh(grid)))
    assert np.abs(out.values - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(out.values.imag).max() > 1e-3 * np.abs(want).max()


def test_sampled_field_keeps_real_or_complex_storage(grid1):
    real = np.linspace(-1.0, 1.0, 64)
    for given, dtype in (
        (real, np.float64),
        (np.arange(64), np.float64),
        (real.astype(np.float32), np.float64),
        (real + 0j, np.complex128),
        (real * 1j, np.complex128),
    ):
        f = make_field(grid1, given)
        assert f.values.dtype == dtype
        assert not f.values.flags.writeable
        assert np.array_equal(f.values, given)
    source = real.copy()
    f = make_field(grid1, source)
    source[0] = 7.0
    assert f.values[0] == -1.0


# --- fractional laplacian -------------------------------------------------


def test_fractional_laplacian_single_mode(grid1):
    x = axis_coordinates(grid1)
    f = make_field(grid1, np.cos(2 * np.pi * x))
    out = fractional_laplacian(f, 0.5)
    expected = np.sqrt(2 * np.pi) * np.cos(2 * np.pi * x)
    assert np.abs(out.values - expected).max() < 1e-12


def test_fractional_laplacian_zero_order(grid1):
    f = random_mean_zero_field(grid1, seed=7)
    out = fractional_laplacian(f, 0.0)
    assert np.abs(out.values - f.values).max() == 0.0


def test_fractional_laplacian_inverse(grid1):
    f = random_mean_zero_field(grid1, seed=8)
    out = fractional_laplacian(fractional_laplacian(f, 0.7), -0.7)
    assert np.abs(out.values - f.values).max() < 1e-10 * np.abs(f.values).max()


def test_fractional_laplacian_semigroup(grid2):
    f = random_mean_zero_field(grid2, seed=9)
    a = fractional_laplacian(fractional_laplacian(f, 0.4), 0.9)
    b = fractional_laplacian(f, 1.3)
    scale = np.abs(b.values).max()
    assert np.abs(a.values - b.values).max() < 1e-10 * scale


def test_fractional_laplacian_negative_needs_mean_zero(grid1):
    f = make_field(grid1, np.ones(64))
    with pytest.raises(ValueError, match="mean-zero"):
        fractional_laplacian(f, -0.5)
    for q in (2.0, 3.0):
        with pytest.raises(ValueError, match="mean-zero"):
            sobolev_norm(f, -0.5, q)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("centering", ["cell", "lattice"])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16), (4, 8)])
def test_sobolev_norm_matches_composition(d, n, centering, real):
    # noise has content on every plane of the half spectrum, the k_last = 0
    # and n/2 planes included, and the offset gives it a mean
    grid = make_grid(d, n, 20.0)
    noise = random_field(grid, seed=390 + d, real=real).values
    f = make_field(grid, noise + 0.3, centering)
    g = make_field(grid, noise - np.mean(noise), centering)
    assert f.values.dtype == (np.float64 if real else np.complex128)
    cases = [(f, s) for s in (0.0, 0.5, 1.0)] + [(g, -0.5)]
    for q in (1.5, 2.0, 3.0):
        for h, s in cases:
            want = lq_norm(fractional_laplacian(h, s), q)
            assert sobolev_norm(h, s, q) == pytest.approx(want, rel=1e-12)


# --- riesz transform and gradient -----------------------------------------


def test_riesz_single_mode(grid1):
    x = axis_coordinates(grid1)
    f = make_field(grid1, np.sin(2 * np.pi * x))
    out = riesz_transform(f, 1)
    assert np.abs(out.values - (-np.cos(2 * np.pi * x))).max() < 1e-12


def test_riesz_bad_axis(grid2):
    f = random_field(grid2, seed=10)
    for j in (0, 3):
        with pytest.raises(ValueError):
            riesz_transform(f, j)


def test_riesz_contraction(grid2):
    for seed in range(3):
        f = random_field(grid2, seed=20 + seed)
        for j in (1, 2):
            assert lq_norm(riesz_transform(f, j), 2.0) <= lq_norm(f, 2.0) * (1 + 1e-12)


def test_riesz_gradient_identity(grid2):
    # sum_j R_j(d_j f) = |D| f on mean-zero fields
    f = random_mean_zero_field(grid2, seed=12)
    grads = gradient(f)
    total = np.zeros(grid2.shape, dtype=complex)
    for j, gpart in enumerate(grads, start=1):
        total = total + riesz_transform(gpart, j).values
    target = fractional_laplacian(f, 1.0)
    scale = np.abs(target.values).max()
    assert np.abs(total - target.values).max() < 1e-10 * scale


def test_gradient_single_mode(grid1):
    x = axis_coordinates(grid1)
    f = make_field(grid1, np.cos(2 * np.pi * x))
    (g,) = gradient(f)
    assert np.abs(g.values - (-2 * np.pi * np.sin(2 * np.pi * x))).max() < 1e-11


def test_gradient_constant_is_zero(grid2):
    f = make_field(grid2, np.full(grid2.shape, 3.0))
    for g in gradient(f):
        assert np.abs(g.values).max() < 1e-12


def test_gradient_parseval(grid2):
    f = random_field(grid2, seed=13)
    spec = forward_transform(f)
    from hardylp.spectral_core import frequency_radius

    rad = frequency_radius(grid2)
    freq_side = ((2 * np.pi * rad) ** 2 * np.abs(spec.coefficients) ** 2).sum()
    freq_side *= grid2.L**grid2.d
    space_side = (gradient_magnitude(f) ** 2).sum() * grid2.h**grid2.d
    assert abs(space_side - freq_side) < 1e-10 * space_side


def assert_gradient_matches_the_references(d, n, real, centering, fft_calls):
    """The derivative-matrix products (n <= GRADIENT_MATRIX_N) or the slabbed
    transform pair against the whole-array transform pair and the d-D round
    trip, for white noise, which carries content on every Nyquist plane."""
    grid = make_grid(d, n, 20.0)
    f = make_field(grid, random_field(grid, seed=290 + grid.d, real=real).values, centering)
    coef = forward_transform(f).coefficients
    for ax in range(grid.d):
        assert np.abs(np.take(coef, grid.n // 2, axis=ax)).max() > 1e-3
    del coef
    matrix = grid.n <= GRADIENT_MATRIX_N
    magnitude = np.zeros(grid.shape)
    components = (_component(grid, f.values, ax, real) for ax in range(grid.d))
    for g, line, w in zip(components, line_gradient(f), dd_gradient(f)):
        assert g.dtype == line.dtype == w.dtype
        if not matrix:  # the slabs transform each line as the whole array does
            assert np.array_equal(g, line)
        for want in (line, w):
            assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()
        magnitude += np.abs(w) ** 2
    np.sqrt(magnitude, out=magnitude)
    calls = sum(fft_calls.values())
    got = gradient_magnitude(f)
    # the matrix path makes no FFT call once its matrix is cached
    assert (sum(fft_calls.values()) == calls) == matrix
    assert np.abs(got - magnitude).max() <= 1e-13 * magnitude.max()


@pytest.mark.parametrize("centering", ["cell", "lattice"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gradient_matches_the_dd_transform_reference(d, real, centering, fft_calls):
    assert_gradient_matches_the_references(d, 16, real, centering, fft_calls)


# n = 64 takes the derivative matrix, n = 128 the transform pair; d = 4 stops
# at n = 32, as n = 64 is a 134 MB field
@pytest.mark.parametrize("centering", ["cell", "lattice"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "d, n", [(1, 64), (1, 128), (2, 64), (2, 128), (3, 64), (3, 128), (4, 32)]
)
def test_gradient_matches_the_references_on_longer_lines(d, n, real, centering, fft_calls):
    assert_gradient_matches_the_references(d, n, real, centering, fft_calls)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_derivative_matrix_is_the_transform_pair_on_unit_vectors(real):
    grid = make_grid(1, 32, 20.0)
    D = _derivative_matrix(grid, real)
    assert D.shape == (32, 32) and D.dtype == (np.float64 if real else np.complex128)
    assert not D.flags.writeable and _derivative_matrix(grid, real) is D
    for j in (0, 5, 16, 31):
        e = make_field(grid, np.eye(32)[j] if real else np.eye(32)[j] + 0j)
        assert np.array_equal(D[:, j], next(line_gradient(e)))


@pytest.mark.parametrize("d, n", [(3, 64), (4, 32), (3, 128)])
def test_gradient_magnitude_peak_memory(d, n):
    # component 0 squared in the one output array, the others added slab by
    # slab of about GRADIENT_SLAB_SAMPLES: 1.03 field arrays measured at
    # (d, n) = (4, 32) and 1.13 at (3, 64) on the matrix path (n <= 64); the
    # transform pair adds the half-line spectrum of one slab of lines of
    # component 0, a quarter of about one field array of complex half lines:
    # 1.51 at n = 128
    grid = make_grid(d, n, 20.0)
    f = random_field(grid, seed=7, real=True)
    gradient_magnitude(f)
    bound = 1.2 if n <= GRADIENT_MATRIX_N else 1.6
    assert peak_field_arrays(lambda: gradient_magnitude(f), f.values.nbytes) <= bound


# the leading axis copies each column block; its lines are the last axis's
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d, n", [(2, 16), (2, 64), (3, 16), (3, 64), (4, 16), (4, 32)])
def test_leading_axis_product_is_bitwise_the_last_axis_one(d, n, real):
    grid = make_grid(d, n, 20.0)
    values = random_field(grid, seed=11 * d + n, real=real).values
    D = _derivative_matrix(grid, real)
    last = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    want = np.moveaxis(_matrix_partial(last, d - 1, D), -1, 0)
    got = _matrix_partial(values, 0, D)
    assert got.dtype == values.dtype and np.array_equal(got, want)


# --- in-place and pruned transforms -----------------------------------------

TRANSFORM_GRIDS = [(1, 64), (2, 32), (3, 32), (4, 16)]


def box_cut(spec, n, K):
    """spec with every entry outside the box |k_i| <= K set to zero."""
    k = np.abs(np.fft.fftfreq(n) * n)
    inside = np.ones(spec.shape, dtype=bool)
    for ax, size in enumerate(spec.shape):
        shape = [1] * spec.ndim
        shape[ax] = size
        inside &= (k[:size] <= K).reshape(shape)
    return np.where(inside, spec, 0.0)


@pytest.mark.parametrize("d,n", TRANSFORM_GRIDS)
def test_pruned_inverse_matches_irfftn(d, n):
    # K = n/2 covers the whole half spectrum: the fallback, as for no box
    rng = np.random.default_rng(d)
    half = (n,) * (d - 1) + (n // 2 + 1,)
    axes = tuple(range(d))
    for K in (0, 1, n // 8, n // 4, n // 2):
        spec = box_cut(rng.standard_normal(half) + 1j * rng.standard_normal(half), n, K)
        want = np.fft.irfftn(spec, s=(n,) * d, axes=axes)
        box = _pruned(n, K)
        assert (box is None) == (K > n // 4)
        half_box = spec if box is None else spec[np.ix_(*_half_box(n, d, box))]
        assert np.array_equal(_inverse_real(half_box, n, box), want)
    spec = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    want = np.fft.irfftn(spec, s=(n,) * d, axes=axes)
    assert np.array_equal(_inverse_real(spec, n), want)


@pytest.mark.parametrize("d,n", TRANSFORM_GRIDS)
def test_forward_into_one_buffer_matches_numpy(d, n):
    rng = np.random.default_rng(d)
    v = rng.standard_normal((n,) * d)
    assert np.array_equal(_forward(v), np.fft.rfftn(v))
    c = v + 1j * rng.standard_normal((n,) * d)
    assert np.array_equal(_forward(c), np.fft.fftn(c))


def test_transforms_make_no_field_size_temporaries():
    # the forward transform allocates its output only; the whole inverse
    # works in its input and allocates the real output only
    grid = make_grid(3, 64, 20.0)
    v = random_field(grid, seed=3, real=True).values
    spec = _forward(v)
    assert peak_field_arrays(lambda: _forward(v), spec.nbytes) <= 1.01
    assert peak_field_arrays(lambda: _inverse_real(spec, grid.n), v.nbytes) <= 1.01


def parseval_formula(f, symbols):
    """_parseval_energy as one expression over whole-array temporaries."""
    real = np.isrealobj(f.values)
    spec = np.fft.rfftn(f.values) if real else np.fft.fftn(f.values)
    half = f.grid.n // 2 + 1 if real else None
    power = (spec.real**2 + spec.imag**2) * sum(m[..., :half] for m in symbols)
    total = power.sum()
    if real:
        total = 2.0 * total - power[..., 0].sum() - power[..., -1].sum()
    return total * f.grid.h**f.grid.d / f.grid.size


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d,n", TRANSFORM_GRIDS)
def test_power_symbol_matches_the_masked_build(d, n, real):
    # built in place in the radius array, frequency zero set apart by index
    grid = make_grid(d, n, 20.0)
    for s in (0.0, 0.5, 1.0, 2.0, -1.0):
        got = _power_symbol(grid, s, real)
        assert np.array_equal(got, masked_power_symbol(grid, s, real))
        assert got.flat[0] == 0.0 and not got.flags.writeable


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16), (4, 8), (3, 64)])
def test_in_place_quadratures_match_the_formulas(d, n, real):
    # bitwise: squares, powers and products taken in place in one array
    grid = make_grid(d, n, 20.0)
    f = random_field(grid, seed=d, real=real)
    gradient_symbols = [np.abs(m) ** 2 for m in _gradient_symbols(f)]
    for symbols in ([_power_symbol(grid, 1.0, real)], gradient_symbols):
        assert _parseval_energy(f, symbols) == parseval_formula(f, symbols)
    hd = grid.h**d
    order = 0.25 if d == 1 else 0.5  # s q < d for every q
    for q in (1.0, 2.0, 3.0, 3.5):
        assert _lq(f.values, hd, q) == lq_formula(f.values, hd, q)
        w = reflected_weight(grid, -order * q)
        assert power_weighted_lq_norm(f, -order, q) == lq_formula(f.values, hd, q, w)
    want = np.sqrt(sum(np.abs(g.values) ** 2 for g in gradient(f)))
    assert np.array_equal(gradient_magnitude(f), want)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16), (4, 8)])
def test_weighted_sum_reflects_the_octant_table(d, n):
    # power_weighted_lq_norm multiplies |f|^q in place by the octant table,
    # reflected onto each block: the formula with the whole grid's table
    # built on the whole mesh, bitwise where the axis coordinates are bitwise
    # even (L = 20), to rounding elsewhere; and with the table built cell by
    # cell (the oracle, d < 4: 16^4 points per near cell) to its 1e-13
    for L, tol in ((20.0, 0.0), (20.0 / 3.0, 1e-15)):
        grid = make_grid(d, n, L)
        x, hd = axis_coordinates(grid), grid.h**d
        for real in (True, False):
            f = random_field(grid, seed=d, real=real)
            for order, q in ((0.15 * d, 2.0), (0.3 * d, 3.0), (-0.2, 2.5)):
                got = power_weighted_lq_norm(f, -order, q)
                full = _build_weight(grid, -order * q, x)
                want = lq_formula(f.values, hd, q, full)
                assert abs(got - want) <= tol * want
                if d < 4:
                    oracle = direct_refined_weight(grid, -order * q, x)
                    want = lq_formula(f.values, hd, q, oracle)
                    assert got == pytest.approx(want, rel=1e-13)


# --- norms ------------------------------------------------------------------


def test_lq_norm_constant(grid2):
    f = make_field(grid2, np.full(grid2.shape, -2.0))
    for q in (1.0, 2.0, 3.5):
        assert lq_norm(f, q) == pytest.approx(2.0 * grid2.L ** (grid2.d / q), rel=1e-12)
    assert lq_norm(f, np.inf) == 2.0


def test_lq_norm_zero_field(grid1):
    f = make_field(grid1, np.zeros(64))
    assert lq_norm(f, 2.0) == 0.0
    assert lq_norm(f, np.inf) == 0.0


def test_lq_norm_rejects_small_exponent(grid1):
    with pytest.raises(ValueError):
        lq_norm(make_field(grid1, np.ones(64)), 0.5)


def test_lq_norm_cos_against_dense_oracle(grid1):
    x = axis_coordinates(grid1)
    f = make_field(grid1, np.cos(2 * np.pi * x))
    val = lq_norm(f, 2.0)
    assert val == pytest.approx(COS_L2, abs=1e-10)
    assert val == pytest.approx(dense_cos_l2_oracle(), abs=1e-9)


def test_weighted_norm_s_zero_matches_lq_exactly(grid2):
    f = random_field(grid2, seed=14)
    for q in (1.0, 2.0, 3.0):
        assert weighted_lq_norm(f, 0.0, q) == lq_norm(f, q)


def test_weighted_norm_zero_field(grid3):
    f = make_field(grid3, np.zeros(grid3.shape))
    assert weighted_lq_norm(f, 1.0, 2.0) == 0.0


def test_weighted_norm_gaussian_oracle(grid3_fine):
    f = gaussian_field(grid3_fine, 1.0)
    val = weighted_lq_norm(f, 1.0, 2.0)
    assert val == pytest.approx(np.sqrt(GAUSS_WEIGHTED_SQ), rel=0.02)


def test_weighted_norm_lattice_origin_rejected(grid1):
    f = make_field(grid1, np.ones(64), centering="lattice")
    with pytest.raises(ValueError, match="cell-centered"):
        weighted_lq_norm(f, 0.5, 2.0)


def test_power_weighted_positive_power(grid2):
    # |x|^alpha weight is smooth; constant field against direct sum
    f = make_field(grid2, np.ones(grid2.shape))
    from hardylp.spectral_core import radius_mesh

    r = radius_mesh(grid2)
    direct = ((r**0.8).sum() * grid2.h**2) ** 0.5
    assert power_weighted_lq_norm(f, 0.4, 2.0) == pytest.approx(direct, rel=1e-12)


# the direct d=4 build averages 16^4 points in each of up to 405 near cells
# of the octant, so d=4 takes one exponent per n.  An exponent <= -d has no
# table: its cases check the refusal, and the oracle runs at the integrable
# exponents -0.7 and -0.9 (d = 1), -1.5 and -1.9 (d = 2), -2.5 and -2.9 (d = 3)
WEIGHT_CASES = [
    (d, n, e) for d in (1, 2, 3) for n in (8, 16, 32) for e in (-0.4, -1.0, -2.0, -3.0)
] + [
    (d, n, e) for d, es in ((1, (-0.7, -0.9)), (2, (-1.5, -1.9)), (3, (-2.5, -2.9)))
    for n in (8, 16, 32) for e in es
] + [(4, 8, -3.0), (4, 16, -1.0), (4, 32, -0.4)]


@pytest.mark.parametrize("d,n,exponent", WEIGHT_CASES)
def test_refined_weight_matches_direct_oracle(d, n, exponent):
    # at n = 8 the box cuts the refinement ball
    grid = make_grid(d, n, 20.0)
    if exponent <= -d:
        with pytest.raises(ValueError, match=r"not integrable .* need s q < d"):
            _refined_weight(grid, exponent)
        return
    got = _refined_weight(grid, exponent)
    x = axis_coordinates(grid)[n // 2 :]
    want = direct_refined_weight(grid, exponent, x)
    assert got.shape == (n // 2,) * d and not got.flags.writeable
    assert np.max(np.abs(got - want) / want) <= 1e-13
    # one value per symmetry class: near cells of the octant that permute
    # into each other carry bitwise equal weights
    rad = np.sqrt(sum(c**2 for c in np.meshgrid(*([x] * d), indexing="ij")))
    near = rad <= WEIGHT_REFINE_RADIUS * grid.h
    for image in (np.swapaxes(got, 0, ax) for ax in range(1, d)):
        assert np.array_equal(image[near], got[near])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_weight_build_matches_the_whole_mesh_build_bitwise(d):
    # the zero test and the near cells are found in the sub-cube around the
    # origin, and the power is taken in place
    for n, L in ((8, 20.0), (16, 1.0), (32, 20.0)):
        grid = make_grid(d, n, L)
        for centering, exponent in (
            ("cell", -0.4), ("cell", -1.0), ("cell", -3.0), ("cell", 0.0),
            ("cell", 0.5), ("lattice", 0.0), ("lattice", 0.5),
        ):
            want = mesh_class_refined_weight(grid, centering, exponent)
            x = axis_coordinates(grid, centering)
            assert np.array_equal(_build_weight(grid, exponent, x), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_weight_classes_on_the_sparse_sub_mesh_are_the_dense_formula(d):
    # _build_weight averages each near class on a sparse sub-mesh, its root
    # and power taken in place; the reference on the dense one, out of place
    for n in (16, 32) if d < 4 else (16,):
        grid = make_grid(d, n, 20.0)
        full = axis_coordinates(grid)
        x = full[n // 2 :]
        for exponent in (-0.5, -1.0, -1.5, -2.0, -3.0):
            want = mesh_class_refined_weight(grid, "cell", exponent)
            assert np.array_equal(_build_weight(grid, exponent, full), want)
            octant = _build_weight(grid, exponent, x)
            assert np.array_equal(octant, want[(slice(n // 2, None),) * d])


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nonsingular_weight_matches_direct_oracle(d, n):
    # a cell-centred field's table is its octant; a lattice field's weight is
    # _radius_power's on the whole mesh, refused when singular at the origin
    grid = make_grid(d, n, 20.0)
    x = axis_coordinates(grid)[n // 2 :]
    want = direct_refined_weight(grid, 0.5, x)
    assert np.array_equal(_refined_weight(grid, 0.5), want)
    x = axis_coordinates(grid, "lattice")
    for exponent in (0.0, 0.5):
        got = _radius_power(grid, "lattice", exponent)
        assert np.array_equal(got, direct_refined_weight(grid, exponent, x))
    with pytest.raises(ValueError, match="cell-centered"):
        _radius_power(grid, "lattice", -1.0)


# --- field file format -----------------------------------------------------


def test_field_file_round_trip(tmp_path, grid2):
    f = random_field(grid2, seed=15)
    path = tmp_path / "f.hlf"
    write_field(path, f)
    back = read_field(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_field_file_layout(tmp_path, grid1):
    # HLF1, the earlier format: no dtype or centering byte, interleaved
    # complex samples, cell centering
    f = random_field(grid1, seed=16)
    flat = f.values.ravel()
    inter = np.empty(2 * flat.size)
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    path = tmp_path / "f.hlf"
    path.write_bytes(b"HLF1" + struct.pack("<QQd", 1, 64, 1.0) + inter.astype("<f8").tobytes())
    back = read_field(path)
    assert back.grid == grid1
    assert back.centering == "cell"
    assert back.values.dtype == np.complex128
    assert np.array_equal(back.values, f.values)


def test_hlf2_field_file_layout(tmp_path, grid1):
    real = random_field(grid1, seed=18, real=True)
    path = tmp_path / "real.hlf"
    write_field(path, real)
    raw = path.read_bytes()
    assert raw[:4] == b"HLF2"
    assert len(raw) == 4 + 26 + 8 * grid1.size
    assert struct.unpack("<QQdBB", raw[4:30]) == (1, 64, 1.0, 0, 0)
    assert struct.unpack("<d", raw[30:38])[0] == real.values[0]
    cplx = make_field(grid1, random_field(grid1, seed=19).values, centering="lattice")
    write_field(path, cplx)
    raw = path.read_bytes()
    assert len(raw) == 4 + 26 + 16 * grid1.size
    assert struct.unpack("<QQdBB", raw[4:30]) == (1, 64, 1.0, 1, 1)
    assert struct.unpack("<dd", raw[30:46]) == (cplx.values[0].real, cplx.values[0].imag)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("centering", ["cell", "lattice"])
def test_field_file_keeps_dtype_and_centering(tmp_path, grid2, centering, real):
    f = make_field(grid2, random_field(grid2, seed=20, real=real).values, centering)
    path = tmp_path / "f.hlf"
    write_field(path, f)
    back = read_field(path)
    assert back.grid == f.grid
    assert back.centering == centering
    assert back.values.dtype == f.values.dtype
    assert np.array_equal(back.values, f.values)


@pytest.mark.parametrize("byte,name", [(28, "dtype"), (29, "centering")])
def test_field_file_unknown_code(tmp_path, grid1, byte, name):
    path = tmp_path / "f.hlf"
    write_field(path, random_field(grid1, seed=21, real=True))
    raw = bytearray(path.read_bytes())
    raw[byte] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"unknown field {name} code 2"):
        read_field(path)


def test_field_file_bad_magic(tmp_path):
    path = tmp_path / "bad.hlf"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_field(path)


def test_field_file_truncated(tmp_path, grid1):
    f = random_field(grid1, seed=17)
    path = tmp_path / "f.hlf"
    write_field(path, f)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_field(path)


def test_boundary_decay_flag(grid2):
    g = gaussian_field(grid2, 0.075 * grid2.L)
    assert boundary_decay(g) < 1e-8
    wide = gaussian_field(grid2, 0.3 * grid2.L)
    assert boundary_decay(wide) > 1e-8


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_boundary_decay_is_the_full_field_value(d, real):
    # the largest sample placed in the interior, on a face, an edge, a corner
    grid = make_grid(d, 8, 20.0)
    noise = 1e-3 * random_field(grid, seed=40 + d, real=real).values
    n = grid.n
    peaks = [(3,) * d, (0,) + (4,) * (d - 1), ((0, n - 1) + (2,) * d)[:d], (n - 1,) * d]
    for pos in peaks:
        vals = noise.copy()
        vals[pos] = -0.75 if real else -0.6 + 0.45j
        f = make_field(grid, vals)
        assert boundary_decay(f) == full_field_boundary_decay(f)
        on_boundary = 0 in pos or n - 1 in pos
        assert (boundary_decay(f) == 0.75) == on_boundary


# --- the octant of an even field ----------------------------------------------


def _octant_block(grid):
    """The index of the octant x_i > 0 on the cell-centred mesh."""
    return (slice(grid.n // 2, None),) * grid.d


@pytest.mark.parametrize("d, sizes", [(1, (8, 64)), (2, (8, 32)), (3, (8, 32)), (4, (8, 16))])
def test_even_transform_matches_rfftn_of_the_mirrored_field(d, sizes):
    rng = np.random.default_rng(d)
    for n in sizes:
        octant = rng.standard_normal((n // 2,) * d)
        full = octant
        for ax in range(d):
            full = np.concatenate((np.flip(full, axis=ax), full), axis=ax)
        spec = np.fft.rfftn(full)
        top = np.max(np.abs(spec))
        # the non-negative octant k_i <= n/2, each axis's phase divided out
        k = np.arange(n // 2 + 1)
        phase = (-1.0) ** k * np.exp(1j * np.pi * k / n)
        spec = spec[(slice(0, n // 2 + 1),) * d]
        for ax in range(d):
            spec = spec / phase.reshape([-1 if a == ax else 1 for a in range(d)])
        got = _even_transform(octant)
        assert np.max(np.abs(spec[(slice(0, n // 2),) * d] - got)) <= 1e-13 * top
        # the rows k_i = n/2 of the mirrored field's spectrum vanish
        for ax in range(d):
            assert np.max(np.abs(np.take(spec, n // 2, axis=ax))) <= 1e-13 * top


@pytest.mark.parametrize("d, sizes", [(1, (8, 64)), (2, (8, 32)), (3, (8, 32)), (4, (8, 16))])
def test_even_inverse_undoes_the_even_transform(d, sizes):
    rng = np.random.default_rng(10 + d)
    for n in sizes:
        octant = rng.standard_normal((n // 2,) * d)
        got = _even_inverse(_even_transform(octant))
        assert got.shape == octant.shape
        assert np.max(np.abs(got - octant)) <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_even_octant_takes_only_real_cell_centred_mirror_symmetric_fields(d):
    grid = make_grid(d, 16, 20.0)
    f = gaussian_field(grid, 3.0)
    octant = _even_octant(f)
    assert np.array_equal(octant, f.values[_octant_block(grid)])
    # complex, lattice-centred, and one sample changed, on a face or inside
    assert _even_octant(f.with_values(f.values + 0j)) is None
    assert _even_octant(make_field(grid, f.values, centering="lattice")) is None
    for ax in range(d):
        for pos in (0, 5, 15):
            vals = f.values.copy()
            vals[(3,) * ax + (pos,) + (3,) * (d - ax - 1)] *= 1.0 + 1e-15
            assert _even_octant(f.with_values(vals)) is None
    # a field even along every axis but the last
    vals = np.broadcast_to(np.arange(16.0), grid.shape)
    assert _even_octant(f.with_values(vals)) is None


def test_lq_norm_does_not_underflow_at_large_q():
    grid = make_grid(3, 16, 20.0)
    f = make_field(grid, np.full(grid.shape, 0.5))
    for q in (100.0, 1000.0, 1e300):
        want = 0.5 * grid.L ** (3.0 / q)
        assert lq_norm(f, q) == pytest.approx(want, rel=1e-12, abs=0.0)
    zero = make_field(grid, np.zeros(grid.shape))
    assert lq_norm(zero, 1e300) == lq_norm(zero, 3.0) == 0.0


def power_samples():
    """Nonnegative samples with zeros, subnormals, 1e-300 and values near 1,
    more of them than one chunk of a cube."""
    x = np.random.default_rng(5).lognormal(0.0, 3.0, POWER_CHUNK * 3 + 123)
    x[:6] = (0.0, 5e-324, 1e-310, 1e-300, 1.0, np.nextafter(1.0, 2.0))
    return x


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_raise_is_within_two_ulp_of_np_power(p):
    x = power_samples()
    want = np.power(x, p)
    got = _raise(x.copy(), p)
    assert np.array_equal(got, power_formula(x, p))
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
    assert got[:4].tolist() == [0.0] * 4 and got[4] == 1.0
    exact = math.fsum(want.tolist())
    assert abs(float(got.sum()) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 2.5])
def test_raise_takes_views_in_place_or_refuses_them(p):
    # a cube refuses a view that no flat view covers, never raising a copy;
    # every other view, a Fortran-ordered array too, is raised where it lies
    base = power_samples()[: 64 * 48].reshape(64, 48)
    views = [  # (view, whether one flat view, strided or Fortran, covers it)
        (lambda a: a[:, ::2], True),
        (np.asfortranarray, True),
        (lambda a: a[:, :20], False),
        (lambda a: a.T[::3], False),
    ]
    for make, flat in views:
        arr = base.copy()
        view = make(arr)
        want = power_formula(view, p)
        expected = base.copy()
        make(expected)[...] = want
        if p == 3.0 and not flat:
            with pytest.raises(ValueError):
                _raise(view, p)
            assert np.array_equal(arr, base)
        else:
            assert _raise(view, p) is view and np.array_equal(view, want)
            assert np.array_equal(arr, expected)


def test_lq_peak_memory():
    # |f| and one chunk-sized scratch buffer: no second field array
    grid = make_grid(4, 32, 20.0)
    f = random_field(grid, seed=3, real=True)
    hd = grid.h**4
    _lq(f.values, hd, 3.0)
    assert peak_field_arrays(lambda: _lq(f.values, hd, 3.0), f.values.nbytes) <= 1.05


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_octant_tables_are_bitwise_blocks_of_the_full_ones(d):
    for n, L in ((8, 20.0), (16, 20.0 / 3.0), (32 if d < 4 else 16, 20.0)):
        grid = make_grid(d, n, L)
        block = _octant_block(grid)
        for exponent in (-0.4, -0.5 * d, -0.9 * d):  # integrable: exponent > -d
            want = _build_weight(grid, exponent, axis_coordinates(grid))[block]
            assert np.array_equal(_refined_weight(grid, exponent), want)
        for s in (0.6, 2.0):
            want = _power_symbol(grid, s, True)[(slice(0, n // 2),) * d]
            assert np.array_equal(_power_symbol(grid, s, True, octant=True), want)

        def profile(r):
            return np.exp(-(r**2) / 7.0) / (1.0 + r)

        want = _radial_values(grid, profile)[block]
        assert np.array_equal(_radial_values(grid, profile, octant=True), want)


# --- the box length range -----------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_make_grid_takes_the_box_range_and_refuses_just_past_it(d):
    lo, hi = _box_length_range(d)
    # every grid of the range has a normal cell volume and finite squares
    finest = 2 ** (24 // d)
    for n, L in ((8, lo), (8, hi), (finest, lo), (finest, hi)):
        grid = make_grid(d, n, L)
        assert grid.L == L
        assert np.finfo(float).tiny < grid.h**d < np.inf and L**2 < np.inf
    for L in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), lo / 2, hi * 2):
        with pytest.raises(ValueError, match=r"box length must lie in \["):
            make_grid(d, 8, L)
