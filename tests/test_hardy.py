"""Hardy-type quotients, the shell proof chain, and the refinement steps."""

import itertools

import numpy as np
import pytest

import hardylp.hardy as hardy
import hardylp.littlewood_paley as littlewood_paley
import hardylp.spectral_core as spectral_core
from conftest import (
    check,
    discrete_hardy_ceiling,
    full_grid_classical_sides,
    lp_stack,
    peak_field_arrays,
    radial_family_fields,
    random_field,
    random_mean_zero_field,
    reflected_weight,
    shell_majorant_sides,
    without_box,
)
from hardylp.corpus import (
    corpus_fields,
    gaussian_field,
    random_band_limited_field,
    truncated_power_field,
)
from hardylp.hardy import (
    CHECKS,
    FieldValues,
    classical_hardy_quotient,
    gradient_hardy_quotient,
    holder_refinement_check,
    shell_chain_check,
    shell_groups,
    shell_index_mesh,
    shell_radii,
)
from hardylp.littlewood_paley import build_partition, level_sums, project
from hardylp.schur import hardy_kernel_entry
from hardylp.spectral_core import (
    _lq,
    fractional_laplacian,
    gradient_magnitude,
    lq_norm,
    make_field,
    make_grid,
    radius_mesh,
)

# radial quadrature oracle values for the centered Gaussian exp(-|x|^2/(2 s^2)),
# d = 3 (scipy.integrate.quad cross-check agrees to 1e-14):
#   int |f|^2/|x|^2 = 2 pi^(3/2) sigma      int |grad f|^2 = (3/2) pi^(3/2) sigma
GAUSS_CLASSICAL_LHS = {1.0: 11.136655993663414, 1.5: 16.70498399049512}
GAUSS_CLASSICAL_RHS = {1.0: 8.35249199524756, 1.5: 12.528737992871344}
GAUSS_FRACTIONAL_QUOTIENT = 1.1547005383792517  # 2/sqrt(3)


@pytest.fixture(scope="module")
def grid3f():
    return make_grid(3, 64, 20.0)


@pytest.fixture(scope="module")
def gauss3(grid3f):
    return gaussian_field(grid3f, 1.5)


# --- classical quotient -----------------------------------------------------


def test_classical_gaussian_sides_match_oracle(grid3f, gauss3):
    rep = classical_hardy_quotient(gauss3)
    assert rep.lhs == pytest.approx(GAUSS_CLASSICAL_LHS[1.5], rel=0.02)
    assert rep.rhs == pytest.approx(GAUSS_CLASSICAL_RHS[1.5], rel=0.005)
    assert rep.quotient == pytest.approx(4.0 / 3.0, rel=0.02)
    assert rep.passed


def test_classical_bound_constant_dimension():
    for d, n in ((3, 32), (4, 16)):
        g = make_grid(d, n, 20.0)
        rep = classical_hardy_quotient(gaussian_field(g, 1.5))
        assert rep.bound_constant == pytest.approx(4.0 / (d - 2) ** 2)


def test_classical_rejects_low_dimension():
    g = make_grid(2, 32, 20.0)
    with pytest.raises(ValueError, match="d >= 3"):
        classical_hardy_quotient(gaussian_field(g, 1.5))


def test_classical_zero_field_vacuous(grid3f):
    rep = classical_hardy_quotient(make_field(grid3f, np.zeros(grid3f.shape)))
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.quotient is None
    assert rep.vacuous
    assert rep.passed


@pytest.mark.parametrize("kind", ["corpus", "noise", "complex"])
def test_classical_rhs_is_the_energy_of_the_spectral_gradient(kind):
    # Parseval from one forward FFT, with each axis's term zero on its own
    # Nyquist plane for a real field, as the spectral gradient has it; white
    # noise carries content on every Nyquist plane
    grid = make_grid(3, 32, 20.0)
    if kind == "corpus":
        fields_ = [f for _, f in corpus_fields(grid, 6, 1, s=0.5, q=3.0)]
    else:
        real = kind == "noise"
        fields_ = [random_mean_zero_field(grid, 520 + i, real=real) for i in range(3)]
    for f in fields_:
        composed = _lq(gradient_magnitude(f), grid.h**3, 2.0) ** 2
        assert classical_hardy_quotient(f).rhs == pytest.approx(composed, rel=1e-14)


def test_classical_takes_one_forward_fft(gauss3, fft_calls):
    # an even field's forward transform is its octant's DCT, one rfft per axis
    classical_hardy_quotient(gauss3)
    assert dict(fft_calls) == {"rfft": 3}
    # an uneven field's ||grad f||_2^2 takes one rfftn by Parseval; a band
    # field's reads its box spectrum and takes none
    band = random_band_limited_field(gauss3.grid, 7)
    fft_calls.clear()
    classical_hardy_quotient(band)
    assert dict(fft_calls) == {}
    classical_hardy_quotient(without_box(band))
    assert dict(fft_calls) == {"rfftn": 1}


def test_classical_holds_on_corpus(grid3f):
    for seed in range(5):
        f = random_band_limited_field(grid3f, 500 + seed)
        rep = classical_hardy_quotient(f)
        assert rep.passed, rep.quotient


# --- fractional quotient ------------------------------------------------------


def test_fractional_gaussian_quotient(grid3f, gauss3):
    rep = check("fractional", gauss3, 1.0, 2.0)
    assert rep.quotient == pytest.approx(GAUSS_FRACTIONAL_QUOTIENT, rel=0.02)


def test_fractional_rhs_matches_gradient_norm_at_s1_q2(grid3f, gauss3):
    # || |D| f ||_2 = || grad f ||_2 by the frequency-side identity
    rep = check("fractional", gauss3, 1.0, 2.0)
    assert rep.rhs**2 == pytest.approx(GAUSS_CLASSICAL_RHS[1.5], rel=0.005)


def test_fractional_quotient_at_q2_takes_one_real_fft(grid3f, gauss3, fft_calls):
    # Parseval: || |D|^s f ||_2 from the forward transform alone; the even
    # Gaussian takes it on its octant, one forward DCT made by an rfft along
    # each axis, an uneven field takes one rfftn, and a band field none, as
    # it reads its box spectrum
    band = random_band_limited_field(grid3f, 3)
    fft_calls.clear()
    check("fractional", gauss3, 1.0, 2.0)
    assert dict(fft_calls) == {"rfft": 3}
    fft_calls.clear()
    check("fractional", band, 1.0, 2.0)
    assert dict(fft_calls) == {}
    check("fractional", without_box(band), 1.0, 2.0)
    assert dict(fft_calls) == {"rfftn": 1}


def test_fractional_s_zero_limit(grid3f, gauss3):
    rep = check("fractional", gauss3, 0.0, 2.0)
    assert rep.quotient == 1.0


def test_fractional_rejects_inadmissible(grid3f, gauss3):
    with pytest.raises(ValueError):
        check("fractional", gauss3, 1.6, 2.0)  # s >= d/q
    with pytest.raises(ValueError):
        check("fractional", gauss3, 0.5, 1.0)  # q <= 1


def test_fractional_dilation_invariance(grid3f):
    # f(x) -> f(2x) maps the Gaussian width 1.6 to 0.8; both sides scale by
    # the same power so the quotient is unchanged up to quadrature error
    q_wide = check("fractional", gaussian_field(grid3f, 1.6), 1.0, 2.0)
    q_narrow = check("fractional", gaussian_field(grid3f, 0.8), 1.0, 2.0)
    assert q_narrow.quotient == pytest.approx(q_wide.quotient, rel=0.02)


def test_quotient_scaling_invariance_exact(grid3f, gauss3):
    base = check("fractional", gauss3, 0.8, 2.0)
    scaled = check("fractional", 
        gauss3.with_values(-7.25 * gauss3.values), 0.8, 2.0
    )
    assert scaled.quotient == pytest.approx(base.quotient, rel=1e-12)


@pytest.mark.parametrize("d, s", [(2, 0.5), (3, 1.0)])
def test_discrete_ceiling_matches_dense_eigensolve(d, s):
    # the dense operator is assembled column by column from the program's own
    # |D|^-s on the mean-free projections of the unit vectors, independent of
    # the reference's half-spectrum transform
    grid = make_grid(d, 8, 20.0)
    ceiling, top = discrete_hardy_ceiling(grid, s)
    size = grid.size
    riesz = np.empty((size, size))
    for j in range(size):
        e = np.full(size, -1.0 / size)
        e[j] += 1.0
        riesz[:, j] = fractional_laplacian(make_field(grid, e), -s).values.real.ravel()
    weight = reflected_weight(grid, -2.0 * s).ravel()
    dense = riesz.T @ (weight[:, None] * riesz)
    lam = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
    assert ceiling == pytest.approx(np.sqrt(lam), rel=1e-10)
    # the top vector attains the ceiling in the program's own quotient
    f = fractional_laplacian(make_field(grid, top), -s)
    rep = check("fractional", f, s, 2.0)
    assert rep.quotient == pytest.approx(ceiling, rel=1e-10)


def test_every_quotient_homogeneous():
    # multiplying f by a nonzero scalar leaves each quotient fixed
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    f = gaussian_field(grid, 1.5)
    g = f.with_values(3.7j * f.values)
    evaluators = [
        lambda h: classical_hardy_quotient(h),
        lambda h: check("fractional", h, 0.7, 2.0),
        lambda h: check("besov", h, 0.7, 2.0, part),
        lambda h: check("refined", h, 0.5, 2.5, part),
        lambda h: gradient_hardy_quotient(h, 2.0),
        lambda h: gradient_hardy_quotient(h, 2.5, refined=True, partition=part),
    ]
    for evaluate in evaluators:
        a, b = evaluate(f), evaluate(g)
        assert b.quotient == pytest.approx(a.quotient, rel=1e-12)


# --- besov quotient ---------------------------------------------------------


def test_besov_single_level_rhs(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    from test_littlewood_paley import single_mode_field

    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    s, q = 0.4, 2.0
    rep = check("besov", f, s, q, part)
    assert rep.rhs == pytest.approx(N**s * lq_norm(project(f, part, N), q), rel=1e-10)


def test_besov_corpus_finite(grid2):
    s, q = 0.4, 3.0
    part = build_partition(grid2)
    best = 0.0
    for seed in range(8):
        f = random_band_limited_field(grid2, 600 + seed)
        rep = check("besov", f, s, q, part)
        assert rep.quotient is not None and np.isfinite(rep.quotient)
        best = max(best, rep.quotient)
    assert best < 50.0


def test_besov_vs_fractional_rhs_band_stable(grid2):
    # at q = 2 the Besov and Sobolev right sides are equivalent norms; the
    # empirical ratio band should be stable under grid refinement
    s, q = 0.5, 2.0

    def band(n):
        grid = make_grid(2, n, 20.0)
        part = build_partition(grid)
        ratios = []
        for seed in range(6):
            f = random_band_limited_field(grid, 700 + seed)
            b = check("besov", f, s, q, part)
            fr = check("fractional", f, s, q)
            ratios.append(b.rhs / fr.rhs)
        return min(ratios), max(ratios)

    lo1, hi1 = band(64)
    lo2, hi2 = band(128)
    assert 0.1 < lo1 <= hi1 < 10.0
    assert abs(lo2 - lo1) / lo1 < 0.15 and abs(hi2 - hi1) / hi1 < 0.15


# --- refined quotient ---------------------------------------------------------


def test_refined_rejects_small_q(grid2):
    f = random_band_limited_field(grid2, 1)
    with pytest.raises(ValueError, match="fractional_hardy_quotient"):
        check("refined", f, 0.3, 2.0)


def test_refined_single_level_consistency(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    from test_littlewood_paley import single_mode_field

    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    s, q = 0.3, 4.0
    rep = check("refined", f, s, q, part)
    from hardylp.spectral_core import fractional_laplacian
    from hardylp.littlewood_paley import level_sums

    sob = lq_norm(fractional_laplacian(f, s), q)
    r = 2 * (q - 1)
    tl = level_sums(f, part, s, q, (r,)).triebel_lizorkin(r)
    assert rep.rhs == pytest.approx(sob ** (1 / q) * tl ** ((q - 1) / q), rel=1e-12)


def test_refined_dominated_by_fractional_route(grid2):
    # TL(s; q, 2(q-1)) <= TL(s; q, 2) pointwise, so the refined right side is
    # at most the square-function route times an equivalence constant
    s, q = 0.5, 3.0
    part = build_partition(grid2)
    from hardylp.littlewood_paley import level_sums

    r = 2 * (q - 1)
    for seed in range(6):
        f = random_band_limited_field(grid2, 800 + seed)
        sums = level_sums(f, part, s, q, (r, 2.0))
        tl_high = sums.triebel_lizorkin(r)
        tl_two = sums.triebel_lizorkin(2.0)
        assert tl_high <= tl_two * (1 + 1e-12)


def test_refined_corpus_finite():
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    s, q = 0.5, 4.0
    best = 0.0
    for seed in range(6):
        f = random_band_limited_field(grid, 900 + seed)
        rep = check("refined", f, s, q, part)
        assert rep.quotient is not None and np.isfinite(rep.quotient)
        best = max(best, rep.quotient)
    assert best < 50.0


# --- gradient quotient -----------------------------------------------------------


def test_gradient_constants():
    g3 = make_grid(3, 32, 20.0)
    rep = gradient_hardy_quotient(gaussian_field(g3, 1.5), 2.0)
    assert rep.bound_constant == pytest.approx(2.0)
    g4 = make_grid(4, 16, 20.0)
    rep4 = gradient_hardy_quotient(gaussian_field(g4, 1.5), 3.0)
    assert rep4.bound_constant == pytest.approx(3.0)


def test_gradient_constant_consistent_with_classical():
    # q/(d-q) at (3, 2) equals the square root of the classical constant
    assert 2.0 / (3 - 2) == pytest.approx(np.sqrt(4.0 / (3 - 2) ** 2))


def test_gradient_gaussian_quotient(grid3f, gauss3):
    rep = gradient_hardy_quotient(gauss3, 2.0)
    assert rep.quotient == pytest.approx(GAUSS_FRACTIONAL_QUOTIENT, rel=0.02)
    assert rep.passed


def test_gradient_rejects_large_q():
    g3 = make_grid(3, 32, 20.0)
    with pytest.raises(ValueError):
        gradient_hardy_quotient(gaussian_field(g3, 1.5), 3.0)


def test_gradient_refined_chain(grid2):
    q = 2.5  # the refined window 2 < q < d is open at d = 3
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    f = random_band_limited_field(grid, 42)
    with pytest.raises(ValueError):
        gradient_hardy_quotient(f, 2.0, refined=True, partition=part)
    rep = gradient_hardy_quotient(
        gaussian_field(grid, 1.5), q, refined=True, partition=part
    )
    assert rep.extra["tl_monotone_ok"]
    assert rep.extra["square_vs_gradient"] is not None
    assert rep.quotient is not None and np.isfinite(rep.quotient)


# --- shells ----------------------------------------------------------------------


def test_shell_radii_cover_box(grid2):
    radii = shell_radii(grid2)
    assert radii[0] == grid2.h
    assert radii[-1] == pytest.approx(grid2.L / 2)
    assert all(b == 2 * a for a, b in zip(radii, radii[1:]))


def test_shell_assignment(grid2):
    radii = np.array(shell_radii(grid2))
    idx = shell_index_mesh(grid2)
    r = radius_mesh(grid2)
    inside = r <= grid2.L / 2
    assigned = radii[idx]
    # R/2 < |x| <= R wherever the sample is inside the covered ball
    assert np.all(r[inside] <= assigned[inside] * (1 + 1e-12))
    assert np.all(r[inside] > assigned[inside] / 2 * (1 - 1e-12))
    # corner samples go to the outermost shell
    assert np.all(idx[~inside] == len(radii) - 1)


@pytest.mark.parametrize("d, n, L", [(3, 32, 20.0), (3, 64, 20.0), (3, 32, 5.0), (2, 64, 3.0)])
def test_lattice_origin_is_in_the_innermost_shell(d, n, L):
    # h < 1 on every grid here, where scaling the origin's stand-in radius
    # 1 by 1/h would put it in shell ceil(log2(1/h)) > 0
    grid = make_grid(d, n, L)
    idx = shell_index_mesh(grid, "lattice")
    r = radius_mesh(grid, "lattice")
    assert grid.h < 1.0 and np.count_nonzero(r == 0) == 1
    assert idx[r == 0].tolist() == [0]
    # the shell of every other sample follows R/2 < |x| <= R as on cell grids
    radii = np.array(shell_radii(grid))
    inside = (r > 0) & (r <= L / 2)
    assert np.all(r[inside] <= radii[idx[inside]] * (1 + 1e-12))
    assert np.all(r[inside] > radii[idx[inside]] / 2 * (1 - 1e-12))


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 32), (4, 16)])
def test_octant_shell_groups_are_those_of_the_full_mesh_block(d, n):
    # built on the octant's axis coordinates, bitwise the groups of the block
    # x_i > 0 of the full mesh
    grid = make_grid(d, n, 20.0)
    idx = shell_index_mesh(grid)[(slice(n // 2, None),) * d].ravel()
    order, starts = shell_groups(grid, "cell", True)
    assert np.array_equal(order, np.argsort(idx, kind="stable"))
    assert np.array_equal(starts, np.cumsum(np.bincount(idx))[:-1])


def test_octant_shell_groups_build_holds_octant_arrays():
    # three octant arrays, 3/8 of a field array; the build that cut the block
    # out of the full mesh held 3 field arrays (50.3 MB at d = 3, n = 128)
    grid = make_grid(3, 128, 20.0)
    shell_groups.cache_clear()
    build = lambda: shell_groups(grid, "cell", True)
    assert peak_field_arrays(build, 8 * grid.size) <= 0.4


# --- proof chain -------------------------------------------------------------------


def test_chain_zero_field(grid2):
    rep = check("chain", make_field(grid2, np.zeros(grid2.shape)), 0.4, 2.0)
    assert rep.lhs == 0.0
    assert rep.passed


def test_chain_single_level_field(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    from test_littlewood_paley import single_mode_field

    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    rep = check("chain", f, 0.4, 2.0, part)
    assert rep.passed
    # one nonvanishing coefficient: the end-to-end ratio is directly
    # lhs / (N^(sq) ||P_N f||_q^q)
    piece = project(f, part, N)
    direct = rep.links[0]["lhs"] / (N ** (0.4 * 2.0) * lq_norm(piece, 2.0) ** 2.0)
    assert rep.lhs == pytest.approx(direct, rel=1e-12)


def test_chain_shell_majorant_direction_exact(grid2):
    # link (a) holds with the exact 2^(sq) factor for every field
    for seed in range(6):
        f = random_band_limited_field(grid2, 950 + seed)
        rep = check("chain", f, 0.4, 3.0)
        link = rep.links[0]
        assert link["name"] == "shell-majorant"
        assert link["ratio"] <= 1.0 + 1e-12


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d,n", [(1, 256), (2, 64), (3, 32)])
def test_chain_shell_majorant_matches_the_whole_array_formula(d, n, real):
    # link (a) makes |f - mean|^q in one buffer and weights the radius mesh
    # in place; the whole-array expressions give the same numbers, bitwise
    grid = make_grid(d, n, 20.0)
    for q, s in ((3.0, 0.3), (2.0, 0.25)):
        f = random_field(grid, seed=960 + d, real=real)
        link = check("chain", f, s, q).links[0]
        assert (link["lhs"], link["rhs"]) == shell_majorant_sides(f, s, q)[:2]


def test_chain_and_holder_checks_peak_memory():
    # beside the level pass's sums, which the FieldValues holds: link (a)'s
    # |f - mean|^q with the weighted radius mesh or the shell gather, and the
    # Holder check's pairs of pointwise terms; 4.0 and 3.0 field arrays
    # before they were made in place
    grid = make_grid(3, 64, 20.0)
    f = random_band_limited_field(grid, 1)
    values = FieldValues(f, 0.5, 3.0, build_partition(grid), (3.0, 2.0, 4.0), True)
    for run in (shell_chain_check, holder_refinement_check):
        run(values)  # makes the level pass and warms the caches
        assert peak_field_arrays(lambda: run(values), f.values.nbytes) <= 2.2


@pytest.mark.parametrize("dim,n,s,q", [(1, 256, 0.3, 2.0), (2, 64, 0.4, 3.0)])
def test_chain_bounded_on_corpus(dim, n, s, q):
    grid = make_grid(dim, n, 20.0)
    part = build_partition(grid)
    for seed in range(8):
        f = random_band_limited_field(grid, 1000 + seed)
        rep = check("chain", f, s, q, part)
        assert rep.passed
        assert rep.lhs <= rep.rhs
        assert np.isfinite(rep.extra["localization_constant"])


def test_chain_schur_link_matches_direct_sum(grid2):
    # link (c) is sum_R (sum_N K(N, R) C_N)^q <= a1 a2 sum_N C_N^q with
    # C_N = N^s ||P_N f||_q for the mean-free f, summed here from projections
    s, q = 0.4, 3.0
    part = build_partition(grid2)
    f = random_band_limited_field(grid2, 950)
    f0 = f.with_values(f.values - np.mean(f.values))
    c = np.array([N**s * lq_norm(project(f0, part, N), q) for N in part.levels])
    kernel = np.array(
        [[hardy_kernel_entry(N, R, s, 2, q) for R in shell_radii(grid2)]
         for N in part.levels]
    )
    rep = check("chain", f, s, q, part)
    link = rep.links[2]
    assert link["name"] == "schur-bound"
    assert link["lhs"] == pytest.approx(float(((c @ kernel) ** q).sum()), rel=1e-12)
    a1a2 = rep.extra["schur_a1"] * rep.extra["schur_a2"]
    assert link["rhs"] == pytest.approx(a1a2 * float((c**q).sum()), rel=1e-12)
    assert link["passed"] and link["ratio"] == link["lhs"] / link["rhs"]


def test_chain_localized_bump(grid2):
    # a bump concentrated in a couple of shells still verifies every link
    r = radius_mesh(grid2)
    vals = np.exp(-((r - 2.5) ** 2) / 0.18)
    rep = check("chain", make_field(grid2, vals), 0.4, 2.0)
    assert rep.passed


def test_chain_skips_a_level_of_rounding_noise():
    # a band field on a d = 3, n = 32 grid has no spectrum at the top level:
    # from its samples, that piece is FFT rounding, and its localization
    # ratio is noise; from its box spectrum, the piece is exactly zero
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    band = random_band_limited_field(grid, 1)
    assert not lp_stack(band, part)[-1].any()
    f = without_box(band)
    top = lp_stack(f, part)[-1]
    assert 0.0 < np.abs(top).max() < 1e-14
    for g in (f, band):
        rep = check("chain", g, 0.5, 3.0, part)
        assert rep.extra["worst_pair"][0] != part.levels[-1]


def test_chain_rejects_inadmissible(grid2):
    f = random_band_limited_field(grid2, 3)
    with pytest.raises(ValueError):
        check("chain", f, 1.2, 2.0)  # s >= d/q


# --- one value cache per field ------------------------------------------------------

VERIFY_NAMES = ("fractional", "besov", "refined", "chain", "holder-refinement")


def _shared_values(f, s, q, part, names):
    entries = [CHECKS[name] for name in names]
    powers = [r for entry in entries for r in entry.powers(q)]
    return FieldValues(f, s, q, part, powers, any(e.shells for e in entries))


def test_shared_stack_and_sobolev_norm_give_the_same_reports(grid2):
    # the shared input is one FieldValues, read by every check: its reports
    # are those of one FieldValues per check
    s, q = 0.4, 3.0
    part = build_partition(grid2)
    f = random_band_limited_field(grid2, 5)
    shared = _shared_values(f, s, q, part, VERIFY_NAMES)
    for name in VERIFY_NAMES:
        alone = check(name, f, s, q, part)
        assert CHECKS[name].run(shared, 0.03).to_dict() == alone.to_dict()


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_each_value_is_made_at_most_once_whichever_checks_read_it(grid2, call_log, q):
    s = 0.4
    part = build_partition(grid2)
    f = random_band_limited_field(grid2, 5)
    logs = [
        call_log(spectral_core, "power_weighted_lq_norm"),
        call_log(spectral_core, "fractional_laplacian"),
        call_log(spectral_core, "sobolev_norm"),
        call_log(littlewood_paley, "level_sums"),
    ]
    names = VERIFY_NAMES if q > 2 else ("fractional", "besov", "chain")
    for k in range(1, len(names) + 1):
        for chosen in itertools.combinations(names, k):
            for order in (chosen, chosen[::-1]):
                values = _shared_values(f, s, q, part, order)
                for name in order:
                    CHECKS[name].run(values, 0.03)
                assert all(len(log) <= 1 for log in logs), (order, logs)
                assert all(args[0] is f for log in logs for args in log)
                for log in logs:
                    log.clear()


def _assert_close(got, want, path=""):
    """got equals want, float by float, to 1e-12 relative, or absolute below 1."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape, path
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), path
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_close(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (path, got, want)
    else:
        assert got == want, (path, got, want)


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32), (4, 32)])
def test_octant_values_match_the_full_grid(d, n):
    # a radial field takes every value from its octant; FieldValues with the
    # octant path turned off is the reference, the full-grid operators
    grid = make_grid(d, n, 20.0)
    part = build_partition(grid)
    for q in (2.0, 3.0, 4.0):
        s = 0.4 * d / q
        names = VERIFY_NAMES if q > 2 else ("fractional", "besov", "chain")
        for f in radial_family_fields(grid, s, q):
            octant, full = (_shared_values(f, s, q, part, names) for _ in range(2))
            full._octant = None
            assert octant._octant is not None
            block = (slice(n // 2, None),) * d
            _assert_close(octant._lift, full.lifted.values[block])
            for name in ("weighted", "sobolev"):
                _assert_close(getattr(octant, name), getattr(full, name), name)
            cell, whole = octant.sums, full.sums
            assert cell.cell_volume == 2.0**d * whole.cell_volume
            _assert_close(cell.norms, whole.norms, "norms")
            _assert_close(cell.maxima, whole.maxima, "maxima")
            for r, total in whole.powers.items():
                _assert_close(cell.powers[r], total[block], f"powers[{r}]")
            _assert_close(cell.shells * cell.cell_volume, whole.shells * whole.cell_volume)
            for name in names:
                got = CHECKS[name].run(octant, 0.03).to_dict()
                _assert_close(got, CHECKS[name].run(full, 0.03).to_dict(), name)


def _assert_relative(got, want, path=""):
    # within 1e-12 of want, relative to max |want| for an array
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * scale, (path, got, want)


@pytest.mark.parametrize("d", [3, 4])
def test_octant_classical_sides_match_the_full_grid(d):
    # an even field's classical quotient reads its octant: the weighted norm
    # against the octant table, and || |D| f ||_2^2 by one DCT in place of
    # the gradient's Parseval sum on the whole grid
    grid = make_grid(d, 32, 20.0)
    for f in radial_family_fields(grid, 0.5, 3.0):
        assert spectral_core._even_octant(f) is not None
        rep = classical_hardy_quotient(f)
        lhs, rhs = full_grid_classical_sides(f)
        _assert_relative(rep.lhs, lhs, "lhs")
        _assert_relative(rep.rhs, rhs, "rhs")


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32), (4, 32)])
def test_octant_shell_majorant_matches_the_full_grid(d, n):
    # chain link (a) of an even field sums |f - mean|^q on its octant, on
    # cells of 2^d h^d; the whole-grid masked sums are the reference
    grid = make_grid(d, n, 20.0)
    part = build_partition(grid)
    for q in (2.0, 3.0):
        s = 0.4 * d / q
        for f in radial_family_fields(grid, s, q):
            values = FieldValues(f, s, q, part, shells=True)
            assert values._octant is not None
            lhs, rhs, masses = shell_majorant_sides(f, s, q)
            link = shell_chain_check(values).links[0]
            _assert_relative(link["lhs"], lhs, "lhs")
            _assert_relative(link["rhs"], rhs, "rhs")
            _assert_relative(hardy._shell_majorant_sums(values)[1], masses, "masses")
            assert link["passed"]


def _flat_report(rep) -> dict:
    out = rep.to_dict()
    extra = out.pop("extra", {})
    return {**out, **extra}


@pytest.mark.parametrize(
    "d, n", [(2, 16), (2, 64), (2, 128), (3, 16), (3, 64), (3, 128), (4, 16), (4, 32)]
)
def test_octant_gradient_matches_the_full_grid(d, n, call_log):
    # an even field's gradient checks read both norms from its octant, the
    # left side at weight order 1 whatever FieldValues.s is (values.weighted,
    # of order s, would fail at s = 0.5); the full path is the reference
    grid = make_grid(d, n, 20.0)
    part = build_partition(grid) if n > 16 else None  # n = 16 has too few levels
    magnitudes = call_log(spectral_core, "gradient_magnitude")
    fields_ = (
        gaussian_field(grid, 0.075 * grid.L),
        truncated_power_field(grid, 0.5, 2.0 * grid.h, 0.3 * grid.L),
    )
    for f, q in itertools.product(fields_, (1.5, 2.5, 3.0)):
        # the refined check's level pass reads f on both paths: the Gaussian's alone
        refined = 2 < q and part is not None and f is fields_[0]
        for name in ("gradient", "gradient-refined")[: 1 + refined] if q < d else ():
            # the full path reads no s: one reference for both
            want = _flat_report(check(name, f, 1.0, q, part, full=True))
            assert len(magnitudes) == 1
            for s in (0.5, 1.0):
                got = _flat_report(check(name, f, s, q, part))
                assert len(magnitudes) == 1 and got.keys() == want.keys()
                for key, value in want.items():
                    where = (name, s, q, key)
                    if isinstance(value, float):
                        assert abs(got[key] - value) <= 1e-13 * abs(value), where
                    else:
                        assert got[key] == value, where
            magnitudes.clear()


def test_octant_gradient_leaves_complex_lattice_and_long_lines_to_the_full_grid(call_log):
    magnitudes = call_log(spectral_core, "gradient_magnitude")
    grid = make_grid(3, 16, 20.0)
    f = gaussian_field(grid, 0.075 * grid.L)
    check("gradient", f.with_values(f.values + 0j), 1.0, 2.5)
    assert len(magnitudes) == 1
    # a lattice grid has a sample at the origin, which the full path's
    # singular weight refuses; the octant path would read the cell table
    with pytest.raises(ValueError, match="cell-centered"):
        check("gradient", make_field(grid, f.values, "lattice"), 1.0, 2.5)
    # n/2 > GRADIENT_MATRIX_N: the folded matrix would be longer than the
    # full path's lines, which take the transform pair
    grid = make_grid(2, 4 * spectral_core.GRADIENT_MATRIX_N, 20.0)
    values = FieldValues(gaussian_field(grid, 0.075 * grid.L), 1.0, 1.5)
    assert values._octant is not None
    CHECKS["gradient"].run(values, 0.03)
    assert len(magnitudes) == 2


def test_the_level_pass_drops_the_lifted_field(grid2):
    f = random_band_limited_field(grid2, 5)
    values = FieldValues(f, 0.4, 3.0, build_partition(grid2))
    lifted = values.lifted
    assert values.lifted is lifted
    assert len(values.sums.norms) == len(values.partition.levels)
    assert "lifted" not in vars(values)


# --- two-step Holder refinement ------------------------------------------------------


def test_one_decomposition_per_refinement_check(call_log):
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    f = random_mean_zero_field(grid, seed=91)
    calls = call_log(littlewood_paley, "decompose")
    check("holder-refinement", f, 0.5, 3.0, part)
    assert len(calls) == 1
    gradient_hardy_quotient(f, 2.5, refined=True, partition=part)
    assert len(calls) == 2


def test_holder_zero_field(grid2):
    rep = check("holder-refinement", make_field(grid2, np.zeros(grid2.shape)), 0.3, 4.0)
    assert rep.lhs == 0.0 and rep.extra["mid"] == 0.0 and rep.rhs == 0.0
    assert rep.passed


def test_holder_single_level_equality(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    from test_littlewood_paley import single_mode_field

    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    rep = check("holder-refinement", f, 0.3, 4.0, part)
    scale = max(rep.rhs, 1.0)
    assert abs(rep.extra["mid"] - rep.lhs) <= 1e-12 * scale
    assert abs(rep.rhs - rep.extra["mid"]) <= 1e-12 * scale


def test_holder_rejects_small_q(grid2):
    f = random_band_limited_field(grid2, 4)
    with pytest.raises(ValueError):
        check("holder-refinement", f, 0.3, 2.0)


def test_holder_random_fields_nonnegative_slack():
    grid = make_grid(1, 128, 20.0)
    part = build_partition(grid)
    for seed in range(50):
        f = random_band_limited_field(grid, 1100 + seed, envelope=0.8)
        rep = check("holder-refinement", f, 0.3, 4.0, part)
        assert rep.passed, (seed, rep.lhs, rep.extra["mid"], rep.rhs)


def test_holder_general_complex_fields(grid2):
    for seed in range(10):
        f = random_mean_zero_field(grid2, 1200 + seed)
        rep = check("holder-refinement", f, 0.5, 3.0)
        assert rep.passed
