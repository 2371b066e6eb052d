"""Reproducibility and structural properties of the test-field families."""

import tracemalloc
import weakref

import numpy as np
import pytest

import hardylp.corpus as corpus
from conftest import (
    mesh_capped_power,
    mesh_gaussian,
    mesh_truncated_power,
    peak_field_arrays,
    phased_band_limited_field,
)
from hardylp.corpus import (
    corpus_fields,
    gaussian_field,
    random_band_limited_field,
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


def test_corpus_fields_layout(grid2):
    fields = list(corpus_fields(grid2, 8, seed=3, s=0.5, q=2.0))
    labels = [name for name, _ in fields]
    assert len(fields) == 8
    assert labels[0].startswith("gaussian")
    assert any(name.startswith("power") for name in labels)
    assert any(name.startswith("band") for name in labels)


def test_corpus_fields_deterministic(grid2):
    a = list(corpus_fields(grid2, 6, seed=3, s=0.5, q=2.0))
    b = list(corpus_fields(grid2, 6, seed=3, s=0.5, q=2.0))
    for (la, fa), (lb, fb) in zip(a, b):
        assert la == lb
        assert np.array_equal(fa.values, fb.values)


def test_corpus_fields_empty():
    grid = make_grid(2, 32, 20.0)
    assert list(corpus_fields(grid, 0, seed=1)) == []


def test_corpus_fields_skips_powers_on_coarse_grids():
    grid = make_grid(3, 32, 20.0)  # 8h = L/4: power cutoffs collapse
    fields = list(corpus_fields(grid, 6, seed=1, s=1.0, q=2.0))
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
                got = _trial_field(grid, 2.0, 7, params).values
                want = mesh_capped_power(
                    grid, fraction * d / 2.0, cells * grid.h, taper * grid.L
                )
                assert_matches(got, want)


@pytest.mark.parametrize("d,n", [dn for dn in ORACLE_GRIDS if dn[1] >= 16])
def test_band_limited_matches_phased_oracle(d, n):
    # the annulus reaches the k_last = 0 plane, whose mirrors stay on it
    grid = make_grid(d, n, 20.0)
    for seed in (3, 4):
        for envelope in (0.5, 1.0, 2.0):
            got = random_band_limited_field(grid, seed, envelope).values
            assert_matches(got, phased_band_limited_field(grid, seed, envelope))


def test_band_support_is_a_box_mask_and_its_ratios():
    # the support holds the pruning box, the annulus as a read-only mask on
    # it and |xi| / band_lo at its points: 0.17 MB at d = 3, n = 128, where a
    # table per annulus point (box places, phases, scatter indices) held 1.42 MB
    corpus._band_support(make_grid(3, 64, 20.0))  # numpy's first-use allocations
    corpus._band_support.cache_clear()
    tracemalloc.start()
    try:
        K, mask, ratio = corpus._band_support(make_grid(3, 128, 20.0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert K == 16 and mask.shape == (2 * K + 1,) * 3
    assert mask.dtype == bool and not mask.flags.writeable
    assert ratio.size == mask.sum()
    assert held <= 0.3e6


def test_band_limited_takes_one_real_inverse_fft(grid2, fft_calls):
    # one d-D inverse, made as irfftn makes it: an ifft along the leading
    # axis, then one irfft
    random_band_limited_field(grid2, 5)
    assert dict(fft_calls) == {"ifft": 1, "irfft": 1}


def test_band_support_is_built_once_per_grid_and_seed(grid2):
    # an envelope search builds the support once per grid and draws once
    # per seed; only the synthesis repeats
    corpus._band_support.cache_clear()
    corpus._band_draws.cache_clear()

    def builds():
        return (corpus._band_support.cache_info().misses,
                corpus._band_draws.cache_info().misses)

    for envelope in (0.5, 1.3, 2.5, 0.5):
        got = random_band_limited_field(grid2, 8, envelope).values
        assert_matches(got, phased_band_limited_field(grid2, 8, envelope))
    assert builds() == (1, 1)
    random_band_limited_field(grid2, 9)  # a new seed on the same support
    assert builds() == (1, 2)


def test_band_limited_peak_memory():
    # the synthesized field and the SampledField's copy of it; the box
    # spectrum and its widened lines are freed before the copy is made
    grid = make_grid(4, 16, 20.0)
    random_band_limited_field(grid, 1)  # builds the support
    nbytes = grid.size * 8
    assert peak_field_arrays(lambda: random_band_limited_field(grid, 1), nbytes) <= 2.25


def test_corpus_keeps_no_field_the_consumer_dropped():
    # the generator holds no reference to a field it has handed out, so a
    # field the consumer drops is freed before the next one is built
    grid = make_grid(3, 64, 20.0)
    refs = {}
    for label, f in corpus_fields(grid, 6, 1, s=0.5, q=3.0):
        assert [k for k, ref in refs.items() if ref() is not None] == [], label
        refs[label] = weakref.ref(f)
        del f
    assert {"power-0.35", "power-0.6"} < set(refs) and len(refs) == 6
