"""Grid construction, transforms, multipliers, fractional operators, norms."""

import struct

import numpy as np
import pytest

from conftest import direct_refined_weight, random_field, random_mean_zero_field
from hardylp.corpus import gaussian_field
from hardylp.littlewood_paley import build_partition, decompose, project
from hardylp.spectral_core import (
    MAX_GRID_SAMPLES,
    WEIGHT_REFINE_RADIUS,
    Spectrum,
    _power_symbol,
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
        cases.append((piece, part.multipliers[N]))
        cases.append((project(f, part, N).values, part.multipliers[N]))
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
        cases.append((piece, part.multipliers[N]))
        cases.append((project(f, part, N).values, part.multipliers[N]))
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


# the direct d=4 build averages 16^4 points in each of up to 6480 near cells,
# so d=4 takes one exponent per n
WEIGHT_CASES = [
    (d, n, e) for d in (1, 2, 3) for n in (8, 16, 32) for e in (-0.4, -1.0, -2.0, -3.0)
] + [(4, 8, -3.0), (4, 16, -1.0), (4, 32, -0.4)]


@pytest.mark.parametrize("d,n,exponent", WEIGHT_CASES)
def test_refined_weight_matches_direct_oracle(d, n, exponent):
    # at n = 8 the box cuts the refinement ball
    grid = make_grid(d, n, 20.0)
    got = _refined_weight(grid, "cell", exponent)
    want = direct_refined_weight(grid, "cell", exponent)
    assert np.max(np.abs(got - want) / want) <= 1e-13
    # one value per symmetry class: near cells that mirror or permute into
    # each other carry bitwise equal weights
    near = radius_mesh(grid) <= WEIGHT_REFINE_RADIUS * grid.h
    images = [np.flip(got, axis=ax) for ax in range(d)]
    images += [np.swapaxes(got, 0, ax) for ax in range(1, d)]
    for image in images:
        assert np.array_equal(image[near], got[near])


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nonsingular_weight_matches_direct_oracle(d, n):
    grid = make_grid(d, n, 20.0)
    for centering, exponent in (("lattice", 0.0), ("lattice", 0.5), ("cell", 0.5)):
        got = _refined_weight(grid, centering, exponent)
        assert np.array_equal(got, direct_refined_weight(grid, centering, exponent))
    with pytest.raises(ValueError, match="cell-centered"):
        _refined_weight(grid, "lattice", -1.0)


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
