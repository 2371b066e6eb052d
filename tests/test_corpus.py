"""Reproducibility and structural properties of the test-field families."""

import numpy as np
import pytest

from hardylp.corpus import (
    gaussian_field,
    random_band_limited_field,
    standard_corpus,
    truncated_power_field,
)
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
