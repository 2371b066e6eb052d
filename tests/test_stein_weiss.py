"""Riesz potential, two-weight quotients, and the homogeneous-kernel operator."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    check,
    direct_inner_ball_potential,
    radial_average_profile,
    random_field,
    without_box,
)

from hardylp.corpus import gaussian_field, random_band_limited_field
from hardylp.hardy import FieldValues
from hardylp.spectral_core import (
    Spectrum,
    coordinate_mesh,
    fractional_laplacian,
    inverse_transform,
    make_field,
    make_grid,
    radius_mesh,
)
from hardylp.stein_weiss import (
    RadialProfile,
    SteinWeissParams,
    geometric_radii,
    inner_ball_bound_check,
    inner_ball_potential,
    inner_ball_potential_radial,
    radial_kernel_integral,
    riesz_constant,
    riesz_potential,
    sphere_area,
    stein_weiss_check,
)

SQRT_PI = 1.7724538509055159  # riesz constant at d=1, lam=1/2
PI_SQUARED = 9.869604401089358  # riesz constant at d=3, lam=2


@pytest.fixture(scope="module")
def coarse2():
    return make_grid(2, 32, 20.0)


@pytest.fixture(scope="module")
def coarse3():
    return make_grid(3, 16, 20.0)


# --- riesz potential -----------------------------------------------------------


def test_riesz_constant_values():
    assert riesz_constant(1, 0.5) == pytest.approx(SQRT_PI, rel=1e-14)
    assert riesz_constant(3, 2.0) == pytest.approx(PI_SQUARED, rel=1e-14)


def test_riesz_potential_inverse_identity(coarse2):
    f = random_band_limited_field(coarse2, 7)
    f = f.with_values(f.values - f.values.mean())
    s = 0.6
    pot = riesz_potential(f, coarse2.d - s)
    back = fractional_laplacian(pot, s)
    c = riesz_constant(coarse2.d, coarse2.d - s)
    assert np.abs(back.values / c - f.values).max() < 1e-10 * np.abs(f.values).max()


def test_riesz_potential_zero(coarse2):
    out = riesz_potential(make_field(coarse2, np.zeros(coarse2.shape)), 1.0)
    assert np.abs(out.values).max() == 0.0


def test_riesz_potential_single_mode():
    grid = make_grid(1, 64, 1.0)
    coef = np.zeros(64, dtype=complex)
    k = (np.fft.fftfreq(64) * 64).astype(int)
    coef[k == 3] = 1.0
    f = inverse_transform(Spectrum(grid, coef))
    out = riesz_potential(f, 0.5)
    expected = SQRT_PI * (2 * np.pi * 3.0) ** (-0.5) * f.values
    assert np.abs(out.values - expected).max() < 1e-12


def test_riesz_potential_rejects_bad_order(coarse2):
    f = random_band_limited_field(coarse2, 8)
    for lam in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError):
            riesz_potential(f, lam)


def test_riesz_potential_rejects_mean(coarse2):
    f = make_field(coarse2, np.ones(coarse2.shape))
    with pytest.raises(ValueError, match="mean-zero"):
        riesz_potential(f, 1.0)


def test_riesz_potential_of_a_box_field_reads_the_mean_of_its_samples():
    # a band field plus 1 carries the box with the mean's coefficient N at
    # frequency zero: the refusal reads the samples, as on any field, and the
    # box path of its lift agrees with the samples path
    grid = make_grid(3, 32, 20.0)
    band = random_band_limited_field(grid, 1)
    K, box = band.box
    box = box.copy()
    box[0, 0, 0] = grid.size
    f = replace(band, values=band.values + 1.0, box=(K, box))
    with pytest.raises(ValueError, match="mean-zero"):
        riesz_potential(f, 1.5)
    with pytest.raises(ValueError, match="mean-zero"):
        riesz_potential(fractional_laplacian(f, 0.0), 1.5)
    lifted = fractional_laplacian(f, 0.5)
    assert lifted.box is not None
    want = fractional_laplacian(without_box(f), 0.5)
    for got, ref in ((lifted, want), (riesz_potential(lifted, 1.5), riesz_potential(want, 1.5))):
        assert np.abs(got.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()


# --- admissibility validator -------------------------------------------------------


def valid_params():
    # d=2, lam=1.2, p=q=2, alpha=0.2, beta=0.6: 1/q = 1/p + (2-2)/2
    return SteinWeissParams(lam=1.2, p=2.0, q=2.0, alpha=0.2, beta=0.6, d=2)


def test_admissibility_accepts_valid():
    assert valid_params().violations() == []


@pytest.mark.parametrize(
    "changes,needle",
    [
        ({"lam": 2.5}, "0 < lam < d"),
        ({"p": 1.0}, "1 < p"),
        ({"alpha": 1.5}, "alpha < d/p'"),
        ({"q": 1.5}, "p <= q"),
        ({"beta": 1.2}, "beta < d/q"),
        ({"alpha": -0.8}, "alpha + beta"),
        ({"beta": 0.5}, "scaling relation"),
    ],
)
def test_admissibility_names_each_violation(changes, needle):
    from dataclasses import replace

    params = replace(valid_params(), **changes)
    bad = params.violations()
    assert any(needle in msg for msg in bad), bad
    with pytest.raises(ValueError):
        params.require()


def test_scaling_relation_boundary():
    # alpha + beta = 0 stays admissible (boundary included)
    p = SteinWeissParams(lam=2.0, p=2.0, q=2.0, alpha=-0.3, beta=0.3, d=2)
    assert all("alpha + beta" not in m for m in p.violations())


# --- two-weight quotient --------------------------------------------------------------


def test_stein_weiss_specialization_matches_fractional(coarse2):
    # p = q, alpha = 0, beta = s, lam = d - s: the quotient of |D|^s g equals
    # the riesz constant times the fractional Hardy quotient of g
    d, s, q = 2, 0.5, 2.0
    params = SteinWeissParams(lam=d - s, p=q, q=q, alpha=0.0, beta=s, d=d)
    c = riesz_constant(d, d - s)
    for seed in range(4):
        g = random_band_limited_field(coarse2, 20 + seed)
        g = g.with_values(g.values - g.values.mean())
        base = check("fractional", g, s, q)
        rep = stein_weiss_check(fractional_laplacian(g, s), params)
        assert rep.quotient == pytest.approx(c * base.quotient, rel=0.02)


def test_stein_weiss_rejects_violations(coarse2):
    f = random_band_limited_field(coarse2, 9)
    params = SteinWeissParams(lam=1.2, p=2.0, q=2.0, alpha=0.2, beta=0.5, d=2)
    with pytest.raises(ValueError, match="scaling relation"):
        stein_weiss_check(f, params)


def test_stein_weiss_quotient_corpus_finite(coarse2):
    params = valid_params()
    best = 0.0
    for seed in range(8):
        g = random_band_limited_field(coarse2, 30 + seed)
        g = g.with_values(g.values - g.values.mean())
        rep = stein_weiss_check(g, params)
        assert rep.quotient is not None and np.isfinite(rep.quotient)
        best = max(best, rep.quotient)
    assert best < 100.0


def test_stein_weiss_dimension_mismatch(coarse2):
    f = random_band_limited_field(coarse2, 10)
    params = SteinWeissParams(lam=2.7, p=2.0, q=2.0, alpha=0.0, beta=0.3, d=3)
    assert params.violations() == []
    with pytest.raises(ValueError, match="dimension"):
        stein_weiss_check(f, params)


def test_octant_stein_weiss_keeps_the_refusals(coarse2):
    # an octant with a mean is refused as riesz_potential refuses the field,
    # and a grid of another dimension as a field of it
    lifted = FieldValues(gaussian_field(coarse2, 1.5), 0.5, 2.0).lifted
    assert lifted.octant is not None
    params = SteinWeissParams(lam=1.5, p=2.0, q=2.0, alpha=0.0, beta=0.5, d=2)
    with pytest.raises(ValueError, match="mean-zero"):
        stein_weiss_check(lifted.mapped(lambda v: v + 1.0), params)
    with pytest.raises(ValueError, match="dimension"):
        stein_weiss_check(lifted, replace(params, lam=2.5, d=3))


# --- the inner-ball operator's kernel ----------------------------------------------------
# U g(x) = h^d sum_y K(x, y) |g(y)| with the degree -d homogeneous kernel
# K(x, y) = 1 / (|y|^s |x|^(d-s)) on |y| <= |x|/2, zero elsewhere.


def point_mass(grid, index):
    vals = np.zeros(grid.shape)
    vals[index] = 1.0
    return make_field(grid, vals)


def test_kernel_direct_value(coarse3):
    # a unit mass at the innermost sample y0 = (h/2, h/2, h/2) reads the kernel
    s, d, h = 1.0, 3, coarse3.h
    y0 = (coarse3.n // 2,) * 3
    out = inner_ball_potential(point_mass(coarse3, y0), s).values
    r = radius_mesh(coarse3)
    r0 = r[y0]
    assert r0 == pytest.approx(np.sqrt(3) * h / 2, rel=1e-15)
    support = r >= 2 * r0
    expected = h**d / (r0**s * r[support] ** (d - s))
    assert np.all(np.abs(out[support] - expected) <= 1e-13 * expected)


def test_kernel_support(coarse2):
    # U g(x) sees g only on |y| <= |x|/2: a unit mass at y0 is invisible
    # inside |x| < 2 |y0|
    r = radius_mesh(coarse2)
    y0 = (coarse2.n // 2 + 3, coarse2.n // 2)
    out = inner_ball_potential(point_mass(coarse2, y0), 0.5).values
    assert np.array_equal(out > 0, r >= 2 * r[y0])


def test_split_inner_empty_for_far_support(coarse2):
    # support inside {|y| > max|x| / 2} leaves every inner ball empty
    r = radius_mesh(coarse2)
    vals = np.where((r > r.max() / 2 + 0.5) & (r < 0.45 * coarse2.L), 1.0, 0.0)
    assert vals.any()
    assert np.abs(inner_ball_potential(make_field(coarse2, vals), 0.5).values).max() == 0.0


def test_kernel_homogeneity_degree(coarse3):
    # K(lam x, lam y) = lam^-d K(x, y) against dy = lam^d dy': the same
    # samples on a box lam times larger give the same U g
    s = 0.7
    g = random_band_limited_field(coarse3, 16)
    base = inner_ball_potential(g, s).values
    for lam in (2.0, 3.0, 7.5):
        grid = make_grid(3, coarse3.n, lam * coarse3.L)
        scaled = inner_ball_potential(make_field(grid, g.values), s).values
        assert np.all(np.abs(scaled - base) <= 1e-13 * base)


# --- inner-ball operator -----------------------------------------------------------------


def test_inner_ball_zero(coarse2):
    out = inner_ball_potential(make_field(coarse2, np.zeros(coarse2.shape)), 0.5)
    assert np.abs(out.values).max() == 0.0


def test_inner_ball_depends_on_magnitude_only(coarse2):
    g = random_band_limited_field(coarse2, 11)
    a = inner_ball_potential(g, 0.5)
    b = inner_ball_potential(g.with_values(np.abs(g.values)), 0.5)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "d,n,s_values",
    [
        (1, 256, (0.3, 0.7)),
        (2, 32, (0.5, 1.5)),
        (3, 16, (0.5, 2.0)),
        (2, 64, (1.0,)),  # finer than the old pair-quadrature limit
        (4, 8, (3.0,)),  # a dimension the old pair quadrature refused
    ],
    ids=["d1-n256", "d2-n32", "d3-n16", "d2-n64", "d4-n8"],
)
def test_inner_ball_matches_direct_oracle(d, n, s_values):
    grid = make_grid(d, n, 20.0)
    for g in (gaussian_field(grid, 1.5), random_field(grid, seed=d)):
        for s in s_values:
            fast = inner_ball_potential(g, s).values
            direct = direct_inner_ball_potential(g, s)
            assert (direct > 0).any()
            assert np.all(fast.imag == 0.0)
            assert np.all(np.abs(fast.real - direct) <= 1e-13 * direct), (d, n, s)


def test_inner_ball_refuses_lattice_grids(coarse2):
    f = make_field(coarse2, np.ones(coarse2.shape), centering="lattice")
    with pytest.raises(ValueError, match="cell-centered"):
        inner_ball_potential(f, 0.5)


def test_inner_ball_rejects_bad_order(coarse2):
    g = random_band_limited_field(coarse2, 15)
    for s in (0.0, 2.0, 2.5):
        with pytest.raises(ValueError, match="weight order"):
            inner_ball_potential(g, s)


def test_inner_ball_exactly_radial(coarse2):
    # the output depends on x only through |x|: equal radii, equal values
    g = random_band_limited_field(coarse2, 12)
    out = inner_ball_potential(g, 0.5).values.real.ravel()
    r = radius_mesh(coarse2).ravel()
    order = np.argsort(r)
    rs, vs = r[order], out[order]
    i = 0
    while i < len(rs):
        j = i
        while j < len(rs) and rs[j] <= rs[i] * (1 + 1e-12):
            j += 1
        group = vs[i:j]
        if group.size > 1:
            assert group.max() - group.min() <= 1e-12 * max(abs(group).max(), 1e-300)
        i = j


def test_inner_ball_matches_radial_reduction_oracle(coarse2):
    # radialization oracle: the full operator equals the sphere area times
    # the one-ray reduction applied to the spherical average of |g|
    g = random_band_limited_field(coarse2, 13)
    s = 0.5
    direct = inner_ball_potential(g, s).values.real.ravel()
    prof = radial_average_profile(g)
    reduced = inner_ball_potential_radial(prof, s, coarse2.d)
    r = radius_mesh(coarse2).ravel()
    oracle = sphere_area(coarse2.d) * np.interp(r, reduced.radii, reduced.values)
    mask = r >= 10 * coarse2.h  # lattice-ball quadrature needs enough points
    scale = direct[mask].max()
    assert np.abs(direct[mask] - oracle[mask]).max() <= 0.10 * scale
    assert np.median(np.abs(direct[mask] - oracle[mask])) <= 0.03 * scale


# --- weighted potential split ----------------------------------------------------------------


def test_split_pointwise_domination_against_direct_oracle(coarse2):
    # direct-quadrature oracle for the full weighted potential
    # int |g(y)| |y|^-s |x-y|^(s-d) dy: on |y| > |x|/2 the weight is below
    # 2^s |x|^-s, and on |y| <= |x|/2 the kernel is below 2^(d-s) |x|^(s-d),
    # so the full value is at most 2^s outer + 2^(d-s) U g
    s = 0.5
    g = random_band_limited_field(coarse2, 14)
    mesh = coordinate_mesh(coarse2)
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    radii = np.sqrt((pts**2).sum(axis=1))
    mag = np.abs(g.values).ravel()
    hd = coarse2.h**coarse2.d
    d = coarse2.d
    full = np.zeros(len(pts))
    outer_direct = np.zeros(len(pts))
    for i in range(len(pts)):
        dist = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        dist[i] = np.inf  # self-term excluded from the pair quadrature
        full[i] = (mag * radii ** (-s) * dist ** (s - d)).sum() * hd
        outer_direct[i] = radii[i] ** (-s) * (mag * dist ** (s - d)).sum() * hd
    inner = inner_ball_potential(g, s).values.ravel()
    dom = 2.0**s * outer_direct + 2.0 ** (d - s) * inner
    ratio = full / np.maximum(dom, 1e-300)
    assert ratio.max() <= 1.0 + 1e-9


# --- radial reduction --------------------------------------------------------------------------


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0, 0.5]), np.array([1.0, 1.0]))


def test_radial_reduction_zero_profile(coarse3):
    radii = geometric_radii(coarse3)
    prof = RadialProfile(radii, np.zeros(radii.size))
    out = inner_ball_potential_radial(prof, 1.0, 3)
    assert np.abs(out.values).max() == 0.0


def test_radial_reduction_direct_vs_substituted_gaussian():
    grid = make_grid(3, 16, 20.0)
    radii = geometric_radii(grid)
    prof = RadialProfile(radii, np.exp(-(radii**2) / 2.0))
    direct = inner_ball_potential_radial(prof, 1.0, 3, form="direct")
    subst = inner_ball_potential_radial(prof, 1.0, 3, form="substituted")
    mask = direct.values > 1e-6 * direct.values.max()
    rel = np.abs(direct.values[mask] - subst.values[mask]) / direct.values[mask]
    assert rel.max() <= 0.005


def test_radial_reduction_scaling_identity():
    # with g_lam(r) = g(lam r): reduced(g_lam)(R) = reduced(g)(lam R)
    grid = make_grid(3, 16, 20.0)
    radii = geometric_radii(grid)
    lam = 1.7
    g = lambda r: np.exp(-(r**2) / 8.0)
    prof = RadialProfile(radii, g(radii))
    prof_scaled = RadialProfile(radii, g(lam * radii))
    out = inner_ball_potential_radial(prof, 1.0, 3)
    out_scaled = inner_ball_potential_radial(prof_scaled, 1.0, 3)
    target = np.interp(lam * radii, radii, out.values)
    # away from the extrapolated sub-grid head and inside the profile range
    mask = (lam * radii <= radii[-1]) & (radii >= 10 * radii[0])
    rel = np.abs(out_scaled.values[mask] - target[mask]) / np.abs(target[mask]).max()
    assert rel.max() <= 0.01


def test_radial_reduction_unknown_form(coarse3):
    radii = geometric_radii(coarse3)
    prof = RadialProfile(radii, np.ones(radii.size))
    with pytest.raises(ValueError, match="form"):
        inner_ball_potential_radial(prof, 1.0, 3, form="quadrature")


# --- kernel integral and the operator bound ------------------------------------------------------


def test_kernel_integral_values():
    assert radial_kernel_integral(3, 2.0, 1.0) == 2.0  # int_0^1 t^(-1/2) dt
    assert radial_kernel_integral(2, 2.0, 0.5) == 2.0


def test_kernel_integral_divergence():
    with pytest.raises(ValueError, match="diverges"):
        radial_kernel_integral(3, 2.0, 1.5)
    with pytest.raises(ValueError, match="diverges"):
        radial_kernel_integral(2, 2.0, 1.0)


def test_sphere_areas():
    assert sphere_area(2) == pytest.approx(2 * np.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4 * np.pi, rel=1e-14)


def test_inner_ball_bound_zero(coarse2):
    rep = inner_ball_bound_check(make_field(coarse2, np.zeros(coarse2.shape)), 0.5, 2.0)
    assert rep.vacuous and rep.passed


def test_inner_ball_bound_gaussian_d3(coarse3):
    rep = inner_ball_bound_check(gaussian_field(coarse3, 1.5), 1.0, 2.0)
    assert rep.extra["kernel_integral"] == 2.0
    assert rep.extra["sphere_area"] == pytest.approx(4 * np.pi, rel=1e-14)
    assert rep.passed
    assert rep.quotient < 1.0  # genuine slack, recorded


def test_inner_ball_bound_sweep(coarse2):
    d, q = 2, 2.0
    gap = d - d / q
    g = random_band_limited_field(coarse2, 16)
    for frac in (0.25, 0.5, 0.75):
        rep = inner_ball_bound_check(g, frac * gap, q)
        assert rep.passed, (frac, rep.quotient)
