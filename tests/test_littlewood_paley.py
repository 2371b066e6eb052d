"""Dyadic partition construction, projectors, and the scale-indexed norms."""

import numpy as np
import pytest


from conftest import (
    check,
    lp_stack,
    ordered_level_sums,
    peak_field_arrays,
    random_field,
    random_mean_zero_field,
    stack_besov_norm,
    stack_holder_sides,
    stack_level_norms,
    stack_localization_constant,
    stack_shell_sums,
    stack_triebel_lizorkin_norm,
    weighted_stack,
)
from hardylp.corpus import corpus_fields, gaussian_field, random_band_limited_field
import hardylp.littlewood_paley as littlewood_paley
import hardylp.spectral_core as spectral_core
from hardylp.hardy import FieldValues, shell_groups, shell_index_mesh
from hardylp.littlewood_paley import (
    besov_terms,
    build_partition,
    decompose,
    dyadic_bump,
    group_sums,
    level_sums,
    partition_record,
    project,
    smooth_cutoff,
)
from hardylp.spectral_core import (
    Spectrum,
    _frequency_classes,
    _lq,
    _radial_symbol,
    forward_transform,
    fractional_laplacian,
    frequency_radius,
    inverse_transform,
    lq_norm,
    make_field,
    make_grid,
)


def single_mode_field(grid, k_int):
    """Real single lattice mode at per-axis integer frequencies k_int."""
    coef = np.zeros(grid.shape, dtype=complex)
    k = (np.fft.fftfreq(grid.n) * grid.n).astype(int)
    idx = tuple(int(np.where(k == ki)[0][0]) for ki in k_int)
    coef[idx] = 1.0
    return inverse_transform(Spectrum(grid, coef))


# --- profile ----------------------------------------------------------------


def test_cutoff_plateau_and_support():
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    chi = smooth_cutoff(t)
    assert np.array_equal(chi[[0, 1, 2]], [1.0, 1.0, 1.0])
    assert np.array_equal(chi[[3, 4]], [0.0, 0.0])
    # the exp(-1/u) blend is flat to machine precision at both ends, so probe
    # the strictly interior part of the transition
    mid = smooth_cutoff(np.linspace(1.1, 1.9, 57))
    assert np.all((mid > 0) & (mid < 1))
    assert np.all(np.diff(mid) <= 0)


def test_bump_support_exact():
    t = np.array([0.1, 0.25, 0.5, 2.0, 4.0])
    psi = dyadic_bump(t)
    assert np.array_equal(psi[[0, 1, 2]], [0.0, 0.0, 0.0])
    assert np.array_equal(psi[[3, 4]], [0.0, 0.0])
    assert np.all(dyadic_bump(np.linspace(0.6, 1.9, 41)) >= 0)


def test_bump_is_one_at_unit_radius():
    # chi(1) = 1 and chi(2) = 0, so psi(1) = 1 exactly
    assert dyadic_bump(np.array([1.0]))[0] == 1.0


def test_bump_telescopes_to_cutoff_difference():
    # sum of psi(t / 2^j) over a <= j <= b equals chi(t/2^b) - chi(2t/2^a)
    t = np.linspace(0.01, 40.0, 997)
    total = sum(dyadic_bump(t / 2.0**j) for j in range(-2, 4))
    expected = smooth_cutoff(t / 2.0**3) - smooth_cutoff(2.0 * t / 2.0**-2)
    assert np.abs(total - expected).max() < 1e-12


# --- partition ---------------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 64), (3, 32)])
def test_partition_of_unity_interior(dim, n):
    grid = make_grid(dim, n, 20.0)
    part = build_partition(grid)
    total = part.multiplier_sum()
    rad = frequency_radius(grid)
    lo, hi = part.interior_band()
    interior = (rad >= lo) & (rad <= hi) & (rad > 0)
    assert interior.any()
    assert np.abs(total[interior] - 1.0).max() < 1e-12


def test_partition_covers_whole_lattice(grid2):
    # the edge levels keep the raw cutoff tails, so the sum is 1 everywhere
    part = build_partition(grid2)
    total = part.multiplier_sum()
    rad = frequency_radius(grid2)
    assert np.abs(total[rad > 0] - 1.0).max() < 1e-12
    assert total.flat[0] == 0.0  # mean mode excluded


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 64), (3, 32)])
def test_every_multiplier_is_zero_at_frequency_zero(dim, n):
    part = build_partition(make_grid(dim, n, 20.0))
    assert [part.multiplier(N).flat[0] for N in part.levels] == [0.0] * len(
        part.levels
    )


@pytest.mark.parametrize("dim,n,q", [(1, 256, 4.0), (2, 64, 2.0), (3, 32, 3.0)])
def test_decompose_ignores_the_mean_on_the_corpus(dim, n, q):
    # every multiplier vanishes at frequency zero, so the stack of f is the
    # stack of f - mean up to FFT rounding
    grid = make_grid(dim, n, 20.0)
    part = build_partition(grid)
    for label, f in corpus_fields(grid, 6, 1, s=0.3, q=q):
        stack = lp_stack(f, part)
        mean_free = lp_stack(f.with_values(f.values - np.mean(f.values)), part)
        scale = np.abs(stack).max()
        assert np.abs(stack - mean_free).max() <= 1e-15 * scale, label


def test_partition_needs_three_levels():
    with pytest.raises(ValueError, match="too coarse"):
        build_partition(make_grid(1, 16, 1.0))


def test_partition_rejects_bad_coverage(grid2):
    for cov in (0.0, 1.5):
        with pytest.raises(ValueError):
            build_partition(grid2, coverage=cov)


def test_partition_record_is_json(grid2):
    import json

    rec = json.loads(partition_record(build_partition(grid2)))
    assert rec["profile"] == "bump-telescope-v1"
    assert rec["coverage"] == 0.5
    assert rec["levels"] == sorted(rec["levels"])


# --- projector ---------------------------------------------------------------


def test_project_plateau_mode(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    k = int(round(N * grid2.L))  # |xi| = N sits on the psi = 1 plateau
    f = single_mode_field(grid2, (k, 0))
    piece = project(f, part, N)
    assert np.abs(piece.values - f.values).max() < 1e-12


def test_project_kills_distant_mode(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    k = int(round(4 * N * grid2.L))
    f = single_mode_field(grid2, (k, 0))
    piece = project(f, part, N)
    assert np.abs(piece.values).max() < 1e-13


def test_project_out_of_range(grid2):
    part = build_partition(grid2)
    f = random_mean_zero_field(grid2, seed=31)
    with pytest.raises(ValueError, match="outside the partition"):
        project(f, part, part.n_max * 2)


def test_projector_supports_disjoint(grid1_wide):
    # P_N P_M = 0 whenever the dyadic ratio leaves {1/4 ... 4}
    part = build_partition(grid1_wide)
    f = random_mean_zero_field(grid1_wide, seed=32)
    for i, N in enumerate(part.levels):
        for j, M in enumerate(part.levels):
            if 0.25 <= N / M <= 4.0:
                continue
            twice = project(project(f, part, M), part, N)
            assert np.abs(twice.values).max() < 1e-13, (N, M)


def test_project_spectrum_support_interior(grid1_wide):
    part = build_partition(grid1_wide)
    f = random_mean_zero_field(grid1_wide, seed=33)
    for N in part.levels[1:-1]:
        spec = forward_transform(project(f, part, N))
        rad = frequency_radius(grid1_wide)
        outside = (rad < N / 2) | (rad > 2 * N)
        assert np.abs(spec.coefficients[outside]).max() < 1e-13


def test_reconstruction_band_limited(grid2):
    part = build_partition(grid2)
    f = random_band_limited_field(grid2, seed=34)
    total = lp_stack(f, part).sum(axis=0)
    target = f.values - f.values.mean()
    assert np.abs(total - target).max() < 1e-10 * np.abs(target).max()


def test_reconstruction_any_mean_zero_field(grid2):
    # raw edge tails make the reconstruction exact for every mean-zero field
    f = random_mean_zero_field(grid2, seed=35)
    total = lp_stack(f, build_partition(grid2)).sum(axis=0)
    assert np.abs(total - f.values).max() < 1e-10 * np.abs(f.values).max()


# --- scale-indexed norms ------------------------------------------------------


def test_besov_single_level(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    k = int(round(N * grid2.L))
    f = single_mode_field(grid2, (k, 0))
    s, p = 0.7, 2.0
    expected = N**s * lq_norm(project(f, part, N), p)
    for q in (1.0, 2.0, 7.0):
        assert level_sums(f, part, s, p).besov(q) == pytest.approx(expected, rel=1e-12)


def test_besov_zero_field(grid2):
    part = build_partition(grid2)
    f = make_field(grid2, np.zeros(grid2.shape))
    assert level_sums(f, part, 0.5, 2.0).besov(2.0) == 0.0


def test_besov_outer_exponent_monotone(grid2):
    part = build_partition(grid2)
    for seed in range(4):
        f = random_mean_zero_field(grid2, seed=40 + seed)
        sums = level_sums(f, part, 0.4, 2.0)
        values = [sums.besov(q) for q in (1.0, 1.5, 2.0, 4.0)]
        assert all(
            a >= b - 1e-12 * values[0] for a, b in zip(values, values[1:])
        ), values


def test_besov_terms_reported(grid2):
    part = build_partition(grid2)
    f = random_band_limited_field(grid2, seed=44)
    terms = besov_terms(f, part, 0.5, 2.0)
    assert set(terms) == set(part.levels)
    assert all(v >= 0 for v in terms.values())


def test_triebel_lizorkin_single_level_matches_besov(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    s, p = 0.3, 2.0
    rs = (1.0, 2.0, 6.0)
    sums = level_sums(f, part, s, p, rs)
    b = sums.besov(p)
    for r in rs:
        assert sums.triebel_lizorkin(r) == pytest.approx(b, rel=1e-10)


def test_triebel_lizorkin_inner_exponent_monotone(grid2):
    part = build_partition(grid2)
    for seed in range(4):
        f = random_mean_zero_field(grid2, seed=50 + seed)
        rs = (1.0, 2.0, 4.0, 8.0)
        sums = level_sums(f, part, 0.5, 3.0, rs)
        vals = [sums.triebel_lizorkin(r) for r in rs]
        assert all(a >= b - 1e-12 * vals[0] for a, b in zip(vals, vals[1:]))


def test_triebel_lizorkin_equals_besov_at_matching_exponents(grid2):
    # F(s; p, p) = B(s; p, p): the same double sum in both orders
    part = build_partition(grid2)
    for seed in range(3):
        f = random_mean_zero_field(grid2, seed=60 + seed)
        for p in (2.0, 3.0):
            sums = level_sums(f, part, 0.6, p, (p,))
            b = sums.besov(p)
            t = sums.triebel_lizorkin(p)
            assert abs(b - t) < 1e-12 * max(b, 1.0)


def test_square_function_single_mode(grid2):
    part = build_partition(grid2)
    N = part.levels[1]
    f = single_mode_field(grid2, (int(round(N * grid2.L)), 0))
    s = 0.5
    sf = level_sums(f, part, s, powers=(2.0,)).aggregate(2.0)
    expected = N**s * np.abs(project(f, part, N).values)
    assert np.abs(sf - expected).max() < 1e-12


def test_square_function_zero_field(grid2):
    part = build_partition(grid2)
    f = make_field(grid2, np.zeros(grid2.shape))
    assert np.abs(level_sums(f, part, 0.5, powers=(2.0,)).aggregate(2.0)).max() == 0.0


def test_square_function_lq_equals_triebel_lizorkin(grid2):
    part = build_partition(grid2)
    f = random_mean_zero_field(grid2, seed=70)
    s, q = 0.4, 3.0
    a = lq_norm(f.with_values(level_sums(f, part, s, powers=(2.0,)).aggregate(2.0)), q)
    b = level_sums(f, part, s, q, (2.0,)).triebel_lizorkin(2.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_square_function_equivalence_band(grid2):
    # || (sum N^2s |P_N f|^2)^(1/2) ||_q / || |D|^s f ||_q stays inside a
    # fixed band over a band-limited corpus; the constants are empirical
    part = build_partition(grid2)
    s, q = 0.5, 2.0
    ratios = []
    for seed in range(12):
        f = random_band_limited_field(grid2, seed=80 + seed)
        num = level_sums(f, part, s, q, (2.0,)).triebel_lizorkin(2.0)
        den = lq_norm(fractional_laplacian(f, s), q)
        ratios.append(num / den)
    assert 0.1 < min(ratios) and max(ratios) < 10.0
    assert max(ratios) / min(ratios) < 3.0


def test_square_function_equivalence_stable_under_refinement():
    # the empirical band moves by less than 10% from n to 2n
    s, q = 0.5, 2.0

    def band(n):
        grid = make_grid(2, n, 20.0)
        part = build_partition(grid)
        ratios = []
        for seed in range(8):
            f = random_band_limited_field(grid, seed=90 + seed)
            num = level_sums(f, part, s, q, (2.0,)).triebel_lizorkin(2.0)
            den = lq_norm(fractional_laplacian(f, s), q)
            ratios.append(num / den)
        return min(ratios), max(ratios)

    lo1, hi1 = band(64)
    lo2, hi2 = band(128)
    assert abs(lo2 - lo1) / lo1 < 0.10
    assert abs(hi2 - hi1) / hi1 < 0.10


# --- one level pass against the materialised stack ------------------------------

PASS_GRIDS = {1: (128, 20.0), 2: (32, 20.0), 3: (32, 20.0)}


@pytest.mark.parametrize("s", [0.2, 0.5])
@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_level_pass_matches_the_stack(d, q, s):
    # the stack oracle of conftest reads every level at once; the pass reads
    # one level at a time and must give the same numbers bitwise
    grid = make_grid(d, *PASS_GRIDS[d])
    part = build_partition(grid)
    groups = shell_groups(grid)
    rs = (2.0, 2.0 * (q - 1.0), np.inf)
    fields_ = [f for _, f in corpus_fields(grid, 4, 1, s=s, q=q)]
    fields_.append(random_mean_zero_field(grid, seed=300 + d))  # complex
    for f in fields_:
        sums = level_sums(f, part, s, q, (*rs, q), groups)
        stack = weighted_stack(f, part, s)
        assert np.array_equal(sums.norms, stack_level_norms(f, stack, q))
        assert np.array_equal(sums.maxima, stack.max(axis=(*range(1, d + 1),)))
        assert sums.besov(q) == stack_besov_norm(f, stack, q, q)
        for r in rs:
            tl = stack_triebel_lizorkin_norm(f, stack, q, r)
            assert sums.triebel_lizorkin(r) == tl
        # group_sums keeps each shell's samples in C order, as a mask does
        assert np.array_equal(sums.shells, stack_shell_sums(f, stack, q))
        # the radial fields' checks on the whole grid: their octant path sums
        # in another order (test_hardy.py::test_octant_values_match_the_full_grid)
        if q > 2:
            rep = check("holder-refinement", f, s, q, part, full=True)
            sides = (rep.lhs, rep.extra["mid"], rep.rhs)
            assert sides == stack_holder_sides(f, stack, q)
        if s < d / q:
            rep = check("chain", f, s, q, part, full=True)
            e_b = rep.extra["localization_constant"]
            oracle = stack_localization_constant(f, part, s, q)
            assert e_b == oracle


def test_level_norms_do_not_underflow_at_large_p():
    # a level whose max^p leaves the float range is scaled by its max, as
    # _lq scales a field; unscaled, p = 1000 read one level and p = 1e300 none
    grid = make_grid(1, 256, 20.0)
    f = random_band_limited_field(grid, 3)
    part = build_partition(grid)
    for p in (1000.0, 1e300):
        sums = level_sums(f, part, 0.0, p)
        want = [_lq(piece, grid.h, p) for piece in decompose(f, part)]
        assert sums.norms == pytest.approx(want, rel=1e-12, abs=0.0)
        assert np.all(sums.norms > 0.0)
    # p = 1e300 is the max to within L^(1/p) = 1 + 3e-300
    assert sums.norms == pytest.approx(sums.maxima, rel=1e-12, abs=0.0)


def test_besov_terms_of_a_complex_field_match_the_stack(grid2):
    part = build_partition(grid2)
    f = random_mean_zero_field(grid2, seed=310)
    assert np.iscomplexobj(f.values)
    terms = besov_terms(f, part, 0.3, 2.0)
    expected = stack_level_norms(f, weighted_stack(f, part, 0.3), 2.0)
    assert list(terms) == list(part.levels)
    assert list(terms.values()) == expected.tolist()


def test_level_pass_peak_memory_does_not_grow_with_the_levels():
    # one level at a time: the working peak of the verify pass (norms, three
    # pointwise sums, shell sums) is the same at 3 levels and at 5, to within
    # one field array; the stack path grows by about two arrays per level
    grid = make_grid(3, 64, 20.0)
    f = random_band_limited_field(grid, 1)
    groups = shell_groups(grid)
    peaks = []
    for coverage in (0.25, 1.0):
        part = build_partition(grid, coverage)
        level_sums(f, part, 0.5, 3.0, (3.0, 2.0, 4.0), groups)  # warm the caches
        peaks.append(peak_field_arrays(
            lambda: level_sums(f, part, 0.5, 3.0, (3.0, 2.0, 4.0), groups),
            f.values.nbytes,
        ))
        assert len(part.levels) == {0.25: 3, 1.0: 5}[coverage]
    assert abs(peaks[1] - peaks[0]) <= 1.0


@pytest.mark.parametrize("d,n", [(1, 256), (2, 64), (3, 32), (4, 16)])
def test_held_index_tables_are_int32_and_match_int64(d, n, monkeypatch):
    # a grid holds at most 2**24 samples, so the cached shell order and
    # frequency-class index are int32; the gathers through them give the
    # same group sums, pieces and level pass as int64 tables, bitwise
    grid = make_grid(d, n, 20.0)
    part = build_partition(grid, 1.0)
    groups = shell_groups(grid)
    assert groups[0].dtype == np.int32
    wide = (np.argsort(shell_index_mesh(grid).ravel(), kind="stable"), groups[1])
    assert wide[0].dtype == np.int64 and np.array_equal(groups[0], wide[0])
    fields_ = [random_field(grid, seed=60 + d, real=real) for real in (True, False)]
    got = []
    for f in fields_:
        assert _frequency_classes(grid, np.isrealobj(f.values))[0].dtype == np.int32
        assert np.array_equal(group_sums(f.values, groups), group_sums(f.values, wide))
        sums = level_sums(f, part, 0.5, 3.0, (2.0,), groups)
        got.append((list(decompose(f, part)), sums))
    narrow = _frequency_classes.__wrapped__

    def int64_classes(grid, real):
        index, radii = narrow(grid, real)
        return index.astype(np.int64), radii

    for module in (spectral_core, littlewood_paley):
        monkeypatch.setattr(module, "_frequency_classes", int64_classes)
    for f, (pieces, sums) in zip(fields_, got):
        for piece, want in zip(pieces, decompose(f, part)):
            assert np.array_equal(piece, want)
        want = level_sums(f, part, 0.5, 3.0, (2.0,), wide)
        assert np.array_equal(sums.norms, want.norms)
        assert np.array_equal(sums.shells, want.shells)
        assert np.array_equal(sums.powers[2.0], want.powers[2.0])


# (p, powers, with shell groups): the groups need a finite p
LEVEL_PASS_CASES = [
    (3.0, (4.0, 3.0, 2.0, np.inf), True),
    (2.0, (np.inf,), False),
    (np.inf, (np.inf, 2.0), False),
    (np.inf, (3.0,), False),
    (2.5, (), True),
]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16), (4, 16)])
def test_level_pass_matches_the_ordered_reference(d, n, real):
    # bitwise: the level raised to p in place, after its other powers and
    # its running max, gives every norm, maximum, pointwise sum and shell sum
    # of the pass that takes the p-th power as an array of its own first;
    # full coverage gives the small grids three levels or more
    grid = make_grid(d, n, 20.0)
    part = build_partition(grid, 1.0)
    f = random_field(grid, seed=40 + d, real=real)
    groups = shell_groups(grid)
    for p, powers, shells in LEVEL_PASS_CASES:
        g = groups if shells else None
        got = level_sums(f, part, 0.5, p, powers, g)
        want = ordered_level_sums(f, part, 0.5, p, powers, g)
        assert np.array_equal(got.norms, want.norms)
        assert np.array_equal(got.maxima, want.maxima)
        assert got.powers.keys() == want.powers.keys()
        for r in powers:
            assert np.array_equal(got.powers[r], want.powers[r])
        assert (got.shells is None) == (not shells)
        if shells:
            assert np.array_equal(got.shells, want.shells)


def test_level_pass_peak_memory_with_the_verify_sums():
    # verify's pass at q = 3: three pointwise sums and the shell groups.
    # The piece is made in place from the one spectrum, and the level is
    # raised to q in place once its other powers are taken, so the peak is
    # held by the sums, the level and one power or gathered copy of it; a
    # separate q-th power array gave 7.55 field arrays here
    grid = make_grid(3, 64, 20.0)
    f = random_band_limited_field(grid, 1)
    part, groups = build_partition(grid), shell_groups(grid)

    def run():
        level_sums(f, part, 0.5, 3.0, (4.0, 3.0, 2.0), groups)

    run()  # warm the caches
    assert peak_field_arrays(run, f.values.nbytes) <= 6.7


def test_octant_level_pass_peak_memory_with_the_verify_sums():
    # the same sums on a Gaussian, whose pass runs on its octant: every
    # piece, power and gathered copy is an octant array, 1/8 field array
    grid = make_grid(3, 64, 20.0)
    f = gaussian_field(grid, 0.075 * grid.L)
    part = build_partition(grid)

    def run():
        values = FieldValues(f, 0.5, 3.0, part, (4.0, 3.0, 2.0), shells=True)
        assert values.sums.cell_volume == 8.0 * grid.h**3

    run()  # warm the caches
    assert peak_field_arrays(run, f.values.nbytes) <= 1.5


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d,n", [(1, 256), (2, 64), (3, 32), (4, 32)])
def test_level_pieces_match_the_direct_inverse(d, n, real):
    # every level below the top is pruned to the box of its support, within
    # |k_i| <= 2NL; the top level is a high-pass and takes the whole inverse
    grid = make_grid(d, n, 20.0)
    part = build_partition(grid)
    f = random_field(grid, seed=d, real=real)
    axes = tuple(range(d))
    spec = np.fft.rfftn(f.values) if real else np.fft.fftn(f.values)
    for N, piece in zip(part.levels, decompose(f, part), strict=True):
        m = part.multiplier(N, real)
        if real:
            want = np.fft.irfftn(spec * m, s=grid.shape, axes=axes)
        else:
            want = np.fft.ifftn(spec * m)
        assert np.array_equal(piece, want)
        symbol = _radial_symbol(grid, part.tables[N], real)
        if real and N < part.n_max:
            assert isinstance(symbol, tuple) and symbol[0] <= 2 * N * grid.L
        else:
            assert not isinstance(symbol, tuple)


# --- localization bound -------------------------------------------------------


def bernstein_ratios(f, part, q):
    """||P_N f||_inf / (N^(d/q) ||P_N f||_q) per level, 0 on a vanishing
    piece.  Frequency localization bounds the ratio uniformly in N and f;
    the bound depends on the bump profile and is recorded empirically."""
    sums = level_sums(f, part, 0.0, q)
    scale = np.array(part.levels) ** (f.grid.d / q) * sums.norms
    return np.divide(sums.maxima, scale, out=np.zeros_like(scale), where=sums.maxima > 0)


def test_bernstein_zero_piece(grid2):
    part = build_partition(grid2)
    f = make_field(grid2, np.zeros(grid2.shape))
    assert (bernstein_ratios(f, part, 2.0) == 0.0).all()


def test_bernstein_single_mode_grid_independent():
    # one plateau mode: the ratio has a closed form and refining the grid
    # must not change it
    vals = {}
    for n in (64, 128):
        grid = make_grid(1, n, 20.0)
        part = build_partition(grid)
        N = part.levels[1]
        f = single_mode_field(grid, (int(round(N * grid.L)),))
        vals[n] = bernstein_ratios(f, part, 2.0)[1]
    assert vals[64] == pytest.approx(vals[128], rel=1e-10)
    # |e(x)|_inf / (N^(1/q) ||e||_q) for a unit mode: 1 / (N L)^(1/q)
    grid = make_grid(1, 64, 20.0)
    part = build_partition(grid)
    N = part.levels[1]
    expected = 1.0 / (N * grid.L) ** 0.5
    assert vals[64] == pytest.approx(expected, rel=1e-10)


def test_bernstein_uniformly_bounded(grid2):
    part = build_partition(grid2)
    worst = 0.0
    for seed in range(10):
        f = random_band_limited_field(grid2, seed=100 + seed)
        worst = max(worst, bernstein_ratios(f, part, 2.0).max())
    assert worst < 5.0  # profile-dependent constant, recorded empirically
