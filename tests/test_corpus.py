"""Reproducibility and structural properties of the test-field families."""

import numpy as np
import pytest

from conftest import (
    mesh_capped_power,
    mesh_gaussian,
    mesh_truncated_power,
    phased_band_limited_field,
)
from hardylp.corpus import (
    gaussian_field,
    random_band_limited_field,
    standard_corpus,
    truncated_power_field,
)
from hardylp.extremal import _trial_field
from hardylp.spectral_core import (
    boundary_decay,
    forward_transform,
    frequency_radius,
    make_grid,
)


@pytest.fixture(scope="module")
def grid2():
    return make_grid(2, 64, 20.0)


def test_gaussian_decays_at_boundary(grid2):
    from hardylp.corpus import GAUSSIAN_WIDTHS

    for frac in GAUSSIAN_WIDTHS:
        f = gaussian_field(grid2, frac * grid2.L)
        assert boundary_decay(f) <= 1e-8


def test_band_limited_is_deterministic(grid2):
    a = random_band_limited_field(grid2, 123)
    b = random_band_limited_field(grid2, 123)
    assert np.array_equal(a.values, b.values)
    c = random_band_limited_field(grid2, 124)
    assert not np.array_equal(a.values, c.values)


def test_band_limited_spectrum_support(grid2):
    f = random_band_limited_field(grid2, 5)
    spec = forward_transform(f)
    rad = frequency_radius(grid2)
    lo, hi = 2.0 / grid2.L, grid2.n / (8.0 * grid2.L)
    outside = (rad < lo * (1 - 1e-9)) | (rad > hi * (1 + 1e-9))
    assert np.abs(spec.coefficients[outside]).max() < 1e-13


def test_band_limited_mean_zero_and_real(grid2):
    f = random_band_limited_field(grid2, 6)
    assert abs(f.values.mean()) < 1e-13
    assert np.abs(f.values.imag).max() <= 1e-12 * max(1, np.abs(f.values).max())


def test_band_limited_rejects_empty_band(grid2):
    with pytest.raises(ValueError):
        random_band_limited_field(grid2, 1, band=(1e-9, 2e-9))


def test_truncated_power_plateau_and_cut(grid2):
    f = truncated_power_field(grid2, 0.5, 4 * grid2.h, grid2.L / 4)
    vals = f.values.real
    from hardylp.spectral_core import radius_mesh

    r = radius_mesh(grid2)
    # capped near the origin: max value close to the plateau level
    assert vals.max() <= (4 * grid2.h) ** (-0.5)
    assert vals.max() >= 0.8 * (4 * grid2.h) ** (-0.5)
    # vanishes past the outer cut
    assert np.abs(vals[r > 0.47 * grid2.L]).max() == 0.0


def test_truncated_power_validates_cutoffs(grid2):
    with pytest.raises(ValueError, match=">= 2h"):
        truncated_power_field(grid2, 0.5, grid2.h, grid2.L / 4)
    with pytest.raises(ValueError, match="collapse"):
        truncated_power_field(grid2, 0.5, 4 * grid2.h, 6 * grid2.h)


def test_standard_corpus_layout(grid2):
    fields = standard_corpus(grid2, 8, seed=3, s=0.5, q=2.0)
    labels = [name for name, _ in fields]
    assert len(fields) == 8
    assert labels[0].startswith("gaussian")
    assert any(name.startswith("power") for name in labels)
    assert any(name.startswith("band") for name in labels)


def test_standard_corpus_deterministic(grid2):
    a = standard_corpus(grid2, 6, seed=3, s=0.5, q=2.0)
    b = standard_corpus(grid2, 6, seed=3, s=0.5, q=2.0)
    for (la, fa), (lb, fb) in zip(a, b):
        assert la == lb
        assert np.array_equal(fa.values, fb.values)


def test_standard_corpus_empty():
    grid = make_grid(2, 32, 20.0)
    assert standard_corpus(grid, 0, seed=1) == []


def test_standard_corpus_skips_powers_on_coarse_grids():
    grid = make_grid(3, 32, 20.0)  # 8h = L/4: power cutoffs collapse
    fields = standard_corpus(grid, 6, seed=1, s=1.0, q=2.0)
    assert len(fields) == 6
    assert not any(name.startswith("power") for name, _ in fields)


ORACLE_GRIDS = [(1, 16), (1, 256), (2, 16), (2, 64), (3, 16), (3, 64), (4, 8), (4, 16)]


def assert_matches(got, want):
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("d,n", ORACLE_GRIDS)
def test_radial_families_match_mesh_oracle(d, n):
    grid = make_grid(d, n, 20.0)
    for frac in (0.075, 0.3):
        sigma = frac * grid.L
        assert_matches(gaussian_field(grid, sigma).values, mesh_gaussian(grid, sigma))
    cutoffs = [(2 * grid.h, 0.3 * grid.L)] if n >= 16 else []
    if n >= 64:
        cutoffs.append((4 * grid.h, grid.L / 4))  # the corpus's own cutoffs
    for exponent in (0.0, 0.7, 1.4):
        for r_inner, r_outer in cutoffs:
            got = truncated_power_field(grid, exponent, r_inner, r_outer).values
            assert_matches(got, mesh_truncated_power(grid, exponent, r_inner, r_outer))
    for fraction in (0.2, 0.95):
        for cells in (2.0, 3.5):
            for taper in (0.05, 0.0825):
                params = {
                    "family": "truncated-power",
                    "exponent_fraction": fraction,
                    "inner_cells": cells,
                    "outer_fraction": taper,
                }
                got = _trial_field(grid, 1.0, 2.0, 7, params).values
                want = mesh_capped_power(
                    grid, fraction * d / 2.0, cells * grid.h, taper * grid.L
                )
                assert_matches(got, want)


@pytest.mark.parametrize("d,n", [dn for dn in ORACLE_GRIDS if dn[1] >= 16])
def test_band_limited_matches_phased_oracle(d, n):
    # the full band reaches every Nyquist plane, where a frequency is its own
    # mirror image, and the k_last = 0 plane, whose mirrors stay on it
    grid = make_grid(d, n, 20.0)
    full = (1.0 / grid.L, np.sqrt(d) * grid.nyquist)
    for seed in (3, 4):
        for envelope in (0.5, 1.0, 2.0):
            for band in (None, full):
                got = random_band_limited_field(grid, seed, envelope, band).values
                assert_matches(got, phased_band_limited_field(grid, seed, envelope, band))


def test_band_limited_takes_one_real_inverse_fft(grid2, fft_calls):
    random_band_limited_field(grid2, 5)
    assert dict(fft_calls) == {"irfftn": 1}
