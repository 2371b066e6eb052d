"""Hardy-type quotients, the shell proof chain, and the refinement steps."""

import sys

import numpy as np
import pytest

import hardylp.littlewood_paley as littlewood_paley
from conftest import discrete_hardy_ceiling, random_mean_zero_field
from hardylp.corpus import gaussian_field, random_band_limited_field
from hardylp.hardy import (
    besov_hardy_quotient,
    classical_hardy_quotient,
    fractional_hardy_quotient,
    gradient_hardy_quotient,
    holder_refinement_check,
    refined_hardy_quotient,
    shell_chain_check,
    shell_index_mesh,
    shell_radii,
)
from hardylp.littlewood_paley import build_partition, project
from hardylp.spectral_core import (
    _refined_weight,
    fractional_laplacian,
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


def test_classical_holds_on_corpus(grid3f):
    for seed in range(5):
        f = random_band_limited_field(grid3f, 500 + seed)
        rep = classical_hardy_quotient(f)
        assert rep.passed, rep.quotient


# --- fractional quotient ------------------------------------------------------


def test_fractional_gaussian_quotient(grid3f, gauss3):
    rep = fractional_hardy_quotient(gauss3, 1.0, 2.0)
    assert rep.quotient == pytest.approx(GAUSS_FRACTIONAL_QUOTIENT, rel=0.02)


def test_fractional_rhs_matches_gradient_norm_at_s1_q2(grid3f, gauss3):
    # || |D| f ||_2 = || grad f ||_2 by the frequency-side identity
    rep = fractional_hardy_quotient(gauss3, 1.0, 2.0)
    assert rep.rhs**2 == pytest.approx(GAUSS_CLASSICAL_RHS[1.5], rel=0.005)


def test_fractional_quotient_at_q2_takes_one_real_fft(grid3f, gauss3, fft_calls):
    # Parseval: || |D|^s f ||_2 from the forward transform alone
    fractional_hardy_quotient(gauss3, 1.0, 2.0)
    assert dict(fft_calls) == {"rfftn": 1}


def test_fractional_s_zero_limit(grid3f, gauss3):
    rep = fractional_hardy_quotient(gauss3, 0.0, 2.0)
    assert rep.quotient == 1.0


def test_fractional_rejects_inadmissible(grid3f, gauss3):
    with pytest.raises(ValueError):
        fractional_hardy_quotient(gauss3, 1.6, 2.0)  # s >= d/q
    with pytest.raises(ValueError):
        fractional_hardy_quotient(gauss3, 0.5, 1.0)  # q <= 1


def test_fractional_dilation_invariance(grid3f):
    # f(x) -> f(2x) maps the Gaussian width 1.6 to 0.8; both sides scale by
    # the same power so the quotient is unchanged up to quadrature error
    q_wide = fractional_hardy_quotient(gaussian_field(grid3f, 1.6), 1.0, 2.0)
    q_narrow = fractional_hardy_quotient(gaussian_field(grid3f, 0.8), 1.0, 2.0)
    assert q_narrow.quotient == pytest.approx(q_wide.quotient, rel=0.02)


def test_quotient_scaling_invariance_exact(grid3f, gauss3):
    base = fractional_hardy_quotient(gauss3, 0.8, 2.0)
    scaled = fractional_hardy_quotient(
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
    weight = _refined_weight(grid, "cell", -2.0 * s).ravel()
    dense = riesz.T @ (weight[:, None] * riesz)
    lam = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
    assert ceiling == pytest.approx(np.sqrt(lam), rel=1e-10)
    # the top vector attains the ceiling in the program's own quotient
    f = fractional_laplacian(make_field(grid, top), -s)
    rep = fractional_hardy_quotient(f, s, 2.0)
    assert rep.quotient == pytest.approx(ceiling, rel=1e-10)


def test_every_quotient_homogeneous():
    # multiplying f by a nonzero scalar leaves each quotient fixed
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    f = gaussian_field(grid, 1.5)
    g = f.with_values(3.7j * f.values)
    evaluators = [
        lambda h: classical_hardy_quotient(h),
        lambda h: fractional_hardy_quotient(h, 0.7, 2.0),
        lambda h: besov_hardy_quotient(h, 0.7, 2.0, part),
        lambda h: refined_hardy_quotient(h, 0.5, 2.5, part),
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
    rep = besov_hardy_quotient(f, s, q, part)
    assert rep.rhs == pytest.approx(N**s * lq_norm(project(f, part, N), q), rel=1e-10)


def test_besov_corpus_finite(grid2):
    s, q = 0.4, 3.0
    part = build_partition(grid2)
    best = 0.0
    for seed in range(8):
        f = random_band_limited_field(grid2, 600 + seed)
        rep = besov_hardy_quotient(f, s, q, part)
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
            b = besov_hardy_quotient(f, s, q, part)
            fr = fractional_hardy_quotient(f, s, q)
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
        refined_hardy_quotient(f, 0.3, 2.0)


def test_refined_single_level_consistency(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    from test_littlewood_paley import single_mode_field

    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    s, q = 0.3, 4.0
    rep = refined_hardy_quotient(f, s, q, part)
    from hardylp.spectral_core import fractional_laplacian
    from hardylp.littlewood_paley import triebel_lizorkin_norm

    sob = lq_norm(fractional_laplacian(f, s), q)
    tl = triebel_lizorkin_norm(f, part, s, q, 2 * (q - 1))
    assert rep.rhs == pytest.approx(sob ** (1 / q) * tl ** ((q - 1) / q), rel=1e-12)


def test_refined_dominated_by_fractional_route(grid2):
    # TL(s; q, 2(q-1)) <= TL(s; q, 2) pointwise, so the refined right side is
    # at most the square-function route times an equivalence constant
    s, q = 0.5, 3.0
    part = build_partition(grid2)
    from hardylp.littlewood_paley import triebel_lizorkin_norm

    for seed in range(6):
        f = random_band_limited_field(grid2, 800 + seed)
        tl_high = triebel_lizorkin_norm(f, part, s, q, 2 * (q - 1))
        tl_two = triebel_lizorkin_norm(f, part, s, q, 2.0)
        assert tl_high <= tl_two * (1 + 1e-12)


def test_refined_corpus_finite():
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    s, q = 0.5, 4.0
    best = 0.0
    for seed in range(6):
        f = random_band_limited_field(grid, 900 + seed)
        rep = refined_hardy_quotient(f, s, q, part)
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


# --- proof chain -------------------------------------------------------------------


def test_chain_zero_field(grid2):
    rep = shell_chain_check(make_field(grid2, np.zeros(grid2.shape)), 0.4, 2.0)
    assert rep.lhs == 0.0
    assert rep.passed


def test_chain_single_level_field(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    from test_littlewood_paley import single_mode_field

    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    rep = shell_chain_check(f, 0.4, 2.0, part)
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
        rep = shell_chain_check(f, 0.4, 3.0)
        link = rep.links[0]
        assert link["name"] == "shell-majorant"
        assert link["ratio"] <= 1.0 + 1e-12


@pytest.mark.parametrize("dim,n,s,q", [(1, 256, 0.3, 2.0), (2, 64, 0.4, 3.0)])
def test_chain_bounded_on_corpus(dim, n, s, q):
    grid = make_grid(dim, n, 20.0)
    part = build_partition(grid)
    for seed in range(8):
        f = random_band_limited_field(grid, 1000 + seed)
        rep = shell_chain_check(f, s, q, part)
        assert rep.passed
        assert rep.lhs <= rep.rhs
        assert np.isfinite(rep.extra["localization_constant"])


def test_chain_localized_bump(grid2):
    # a bump concentrated in a couple of shells still verifies every link
    r = radius_mesh(grid2)
    vals = np.exp(-((r - 2.5) ** 2) / 0.18)
    rep = shell_chain_check(make_field(grid2, vals), 0.4, 2.0)
    assert rep.passed


def test_chain_rejects_inadmissible(grid2):
    f = random_band_limited_field(grid2, 3)
    with pytest.raises(ValueError):
        shell_chain_check(f, 1.2, 2.0)  # s >= d/q


# --- two-step Holder refinement ------------------------------------------------------


def test_one_decomposition_per_refinement_check(monkeypatch):
    grid = make_grid(3, 32, 20.0)
    part = build_partition(grid)
    f = random_mean_zero_field(grid, seed=91)
    calls = []
    decompose = littlewood_paley.decompose

    def counted(field, partition):
        calls.append(field)
        return decompose(field, partition)

    # every hardylp module that binds the function, as a from-import copies it
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.startswith("hardylp") and getattr(mod, "decompose", None) is decompose:
            monkeypatch.setattr(mod, "decompose", counted)
    holder_refinement_check(f, 0.5, 3.0, part)
    assert len(calls) == 1
    gradient_hardy_quotient(f, 2.5, refined=True, partition=part)
    assert len(calls) == 2


def test_holder_zero_field(grid2):
    rep = holder_refinement_check(make_field(grid2, np.zeros(grid2.shape)), 0.3, 4.0)
    assert rep.lhs == 0.0 and rep.extra["mid"] == 0.0 and rep.rhs == 0.0
    assert rep.passed


def test_holder_single_level_equality(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    from test_littlewood_paley import single_mode_field

    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    rep = holder_refinement_check(f, 0.3, 4.0, part)
    scale = max(rep.rhs, 1.0)
    assert abs(rep.extra["mid"] - rep.lhs) <= 1e-12 * scale
    assert abs(rep.rhs - rep.extra["mid"]) <= 1e-12 * scale


def test_holder_rejects_small_q(grid2):
    f = random_band_limited_field(grid2, 4)
    with pytest.raises(ValueError):
        holder_refinement_check(f, 0.3, 2.0)


def test_holder_random_fields_nonnegative_slack():
    grid = make_grid(1, 128, 20.0)
    part = build_partition(grid)
    for seed in range(50):
        f = random_band_limited_field(grid, 1100 + seed, envelope=0.8)
        rep = holder_refinement_check(f, 0.3, 4.0, part)
        assert rep.passed, (seed, rep.lhs, rep.extra["mid"], rep.rhs)


def test_holder_general_complex_fields(grid2):
    for seed in range(10):
        f = random_mean_zero_field(grid2, 1200 + seed)
        rep = holder_refinement_check(f, 0.5, 3.0)
        assert rep.passed
