"""CLI subcommands, exit codes, config round-trip, and report determinism."""

import argparse
import itertools
import json
import os
import shlex
import subprocess
import sys
import typing
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hardylp.cli as cli
import hardylp.corpus as corpus
import hardylp.extremal as extremal
import hardylp.littlewood_paley as littlewood_paley
import hardylp.spectral_core as spectral_core
from conftest import (
    check,
    peak_field_arrays,
    random_mean_zero_field,
    stack_level_norms,
    weighted_stack,
)
from hardylp.cli import COMMAND_FLAGS, COMMANDS, FLAGS, RunConfig, _build_parser, main
from hardylp.corpus import random_band_limited_field
from hardylp.extremal import ESTIMATE_IDENTITIES
from hardylp.hardy import (
    CHECKS,
    IDENTITIES,
    FieldValues,
    classical_hardy_quotient,
    fractional_hardy_quotient,
    gradient_hardy_quotient,
)
from hardylp.report import CSV_HEADER, EXACT_TOL, CheckReport, reports_to_json
from hardylp.schur import hardy_kernel, hardy_row_sums
from hardylp.spectral_core import (
    GRADIENT_SLABS,
    fractional_laplacian,
    make_field,
    make_grid,
    read_field,
    write_field,
)
from hardylp.stein_weiss import (
    RadialProfile,
    SteinWeissParams,
    geometric_radii,
    inner_ball_bound_check,
    inner_ball_potential_radial,
    riesz_constant,
    stein_weiss_check,
)


@pytest.fixture()
def const_field_file(tmp_path):
    grid = make_grid(1, 64, 1.0)
    path = tmp_path / "const.hlf"
    write_field(path, make_field(grid, np.full(64, 3.0)))
    return path


@pytest.fixture()
def band_field_file(tmp_path):
    grid = make_grid(2, 64, 20.0)
    path = tmp_path / "band.hlf"
    write_field(path, random_band_limited_field(grid, 9))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes ---------------------------------------------------------------


def test_usage_error_is_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_missing_field_file_is_exit_2(capsys):
    code, _, err = run(capsys, "norm", "--field", "/does/not/exist.hlf")
    assert code == 2


def test_inadmissible_parameters_exit_2(capsys, band_field_file):
    code, _, err = run(
        capsys, "hardy-check", "--identity", "refined", "--d", "2", "--n", "32",
        "--s", "0.4", "--q", "2",
    )
    assert code == 2
    assert "fractional_hardy_quotient" in err


def test_verify_all_exit_0(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "all", "--d", "3", "--n", "32",
        "--corpus-size", "3", "--seed", "2",
    )
    assert code == 0
    assert "failed" in err
    reports = json.loads(out)
    assert reports and all("identity" in r for r in reports)


def test_verify_d1_slow_schur_decay_exit_0(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--d", "1", "--n", "256", "--q", "3",
        "--s", "0.2", "--corpus-size", "3",
    )
    assert code == 0
    row = [r for r in json.loads(out) if r["identity"] == "schur-row-sum"]
    assert len(row) == 1 and row[0]["passed"]


def test_verify_honours_tolerance(capsys):
    argv = ("verify", "--suite", "hardy", "--d", "3", "--n", "32", "--corpus-size", "2")
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, "--tolerance", "-0.9")
    assert code == 1
    checked = [r for r in json.loads(out) if r.get("tolerance") == -0.9]
    assert {r["identity"] for r in checked} == {"classical", "gradient"}
    assert not any(r["passed"] for r in checked)


def test_verify_d4_runs_inner_ball_bound_on_its_own_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "stein-weiss", "--d", "4", "--n", "16",
        "--q", "3", "--s", "0.5", "--corpus-size", "2",
    )
    assert code == 0
    ball = [r for r in json.loads(out) if r["identity"] == "inner-ball-bound"]
    assert len(ball) == 2
    assert all(r["passed"] and r["n"] == 16 for r in ball)


def test_verify_builds_one_corpus_and_one_partition(capsys, call_log):
    corpora = call_log(corpus, "corpus_fields")
    partitions = call_log(littlewood_paley, "build_partition")
    code, _, _ = run(
        capsys, "verify", "--suite", "all", "--d", "3", "--n", "32", "--q", "3",
        "--s", "0.5", "--corpus-size", "2",
    )
    assert code == 0
    # the suite's corpus and the inner-ball check's coarse d = 3 corpus, each
    # one field at a time
    assert (len(corpora), len(partitions)) == (2, 1)


def test_verify_runs_the_level_pass_once_per_corpus_field(capsys, call_log):
    passes = call_log(littlewood_paley, "level_sums")
    decomposed = call_log(littlewood_paley, "decompose")
    code, _, _ = run(
        capsys, "verify", "--suite", "all", "--d", "3", "--n", "32", "--q", "3",
        "--s", "0.5", "--corpus-size", "5",
    )
    assert code == 0
    grid = make_grid(3, 32, 20.0)
    fields_ = [f for _, f in corpus.corpus_fields(grid, 5, 1, s=0.5, q=3.0)]
    assert len(passes) == len(fields_) == 5
    # every pass takes the field: the 2 Gaussians' passes read their octant
    # x_i > 0, with no decompose call; the 3 band fields carry their box spectrum
    assert len(decomposed) == 3
    for (field, *_), f, even in zip(passes, fields_, (True, True, False, False, False)):
        assert np.array_equal(field.values, f.values)
        if even:
            assert np.array_equal(field.octant, f.values[(slice(16, None),) * 3])
        else:
            assert field.octant is None
            assert field.box[0] == f.box[0] == 4
            assert np.array_equal(field.box[1], f.box[1])


def test_verify_fft_budget(capsys, fft_calls):
    code, _, _ = run(
        capsys, "verify", "--suite", "all", "--d", "3", "--n", "32", "--q", "3",
        "--s", "0.5", "--corpus-size", "6",
    )
    assert code == 0
    # n = 32 gives 3 dyadic levels; the corpus is 2 Gaussians and 4 band
    # fields (the power-law cutoffs do not fit), and the coarse n = 16 corpus
    # of the inner-ball check is 2 Gaussians and 4 band fields.  A band field
    # carries its box spectrum, which every check of it reads in place of a
    # forward transform, except the drift check's 3.5 f, which is new
    # samples.  Per band field:
    #   |D|^s f (fractional, refined, stein-weiss base)   0 forward + 1 inverse
    #   classical ||grad f||_2^2 by Parseval               0 forward
    #   fractional homogeneity, |D|^s (3.5 f)              1 forward + 1 inverse
    #   stein-weiss Riesz potential of |D|^s f             0 forward + 1 inverse
    #   level pass, 3 levels                               0 forward + 2 inverses
    # that is 1 forward and 5 inverse transforms (4 of them pruned to the
    # box), and each band field's synthesis takes one inverse.  The top
    # level's symbol vanishes on the box |k_i| <= n/8, so that piece is zero
    # with no inverse.  A forward
    # transform is one rfftn; an inverse, whole or pruned, is an ifft along
    # each of the 2 leading axes and one irfft, as irfftn makes it.  A
    # Gaussian takes the same transforms as DCTs on its octant, and none on
    # the whole grid: a forward DCT is an rfft along each of the 3 axes, an
    # inverse DCT an irfft along each.  So per Gaussian 5 forward and 6
    # inverse DCTs.
    inverses = 4 * 5 + 4 + 4
    dct_forward, dct_inverse = 2 * 5, 2 * 6
    assert dict(fft_calls) == {
        "rfftn": 4 * 1, "ifft": 2 * inverses, "irfft": inverses + 3 * dct_inverse,
        "rfft": 3 * dct_forward,
    }


def test_verify_band_fields_take_one_forward_and_one_whole_inverse_each(
    capsys, call_log, fft_calls
):
    # the benchmark's run at seed 1: 2 Gaussians, 2 power laws and 2 band
    # fields.  Each band field takes one rfftn and one whole (unpruned) d-D
    # inverse, both for the drift check's 3.5 f; every other inverse on the
    # n = 64 grid is pruned to the band's box K = n/8 or to a smaller level
    # box: per band field its synthesis, |D|^s f, the Riesz potential and 3
    # of the 4 levels; the top level vanishes on the box, and its piece is
    # zero with no inverse.  The coarse n = 16 corpus of the inner-ball check
    # synthesizes its 4 band fields only, each by one inverse pruned to K = 2
    inverses = call_log(spectral_core, "_inverse_real")
    code, _, _ = run(
        capsys, "verify", "--suite", "all", "--d", "3", "--n", "64", "--q", "3",
        "--s", "0.5", "--corpus-size", "6", "--seed", "1",
    )
    assert code == 0
    assert fft_calls["rfftn"] == 2
    boxes = [K for _, n, *K in inverses if n == 64]
    assert boxes.count([None]) == 2
    assert all(K[0] <= 8 for K in boxes if K != [None])
    assert len(boxes) == 2 * (1 + 1 + 2 + 3) and fft_calls["ifft"] == 2 * len(inverses)
    assert [K for _, n, *K in inverses if n == 16] == [[2]] * 4


def test_verify_of_radial_fields_takes_no_d_dimensional_transform(capsys, fft_calls):
    # the corpus of 4 at n = 64 is 2 Gaussians and 2 power laws, all radial.
    # Each of their transforms is an octant DCT, an rfft (forward) or irfft
    # (inverse) along each of the 3 axes: forward for classical's Parseval,
    # the lifts of f and 3.5 f, the Riesz potential and the level pass;
    # inverse for the two lifts, the Riesz potential and the 4 levels.  The
    # only d-D transforms make the 2 band fields of the coarse n = 16 corpus
    # of the inner-ball check, where the power laws do not fit: one inverse
    # each, an ifft along each of the 2 leading axes and one irfft
    code, _, _ = run(
        capsys, "verify", "--suite", "all", "--d", "3", "--n", "64", "--q", "3",
        "--s", "0.5", "--corpus-size", "4",
    )
    assert code == 0
    grid = make_grid(3, 64, 20.0)
    labels = [label for label, _ in corpus.corpus_fields(grid, 4, 1, s=0.5, q=3.0)]
    families = [label.partition("-")[0] for label in labels]
    assert families == ["gaussian"] * 2 + ["power"] * 2
    assert dict(fft_calls) == {
        "irfft": 4 * 3 * (2 + 1 + 4) + 2, "rfft": 4 * 3 * 5, "ifft": 2 * 2
    }


def test_verify_takes_one_weighted_norm_per_field_for_the_fractional_trio(
    capsys, call_log
):
    norms = call_log(spectral_core, "_lq")
    code, out, _ = run(
        capsys, "verify", "--suite", "hardy", "--d", "3", "--n", "32", "--q", "3",
        "--s", "0.5", "--corpus-size", "3",
    )
    assert code == 0
    identities = [r["identity"] for r in json.loads(out)]
    assert {"fractional", "besov", "refined"} <= set(identities)
    grid = make_grid(3, 32, 20.0)
    fields_ = [f for _, f in corpus.corpus_fields(grid, 3, 1, s=0.5, q=3.0)]
    # ||f / |x|^s||_q is an _lq against the grid's octant table of |x|^-1.5:
    # reflected onto the band field's blocks, as is on the 2 Gaussians'
    # octants x_i > 0
    table = spectral_core._refined_weight(grid, -1.5)
    trio = [args for args in norms if len(args) == 4 and np.shares_memory(args[3], table)]
    # the fractional, Besov and refined quotients share one ||f / |x|^s||_q;
    # the homogeneity check takes its own, of 3.5 f
    assert len(trio) == 2 * len(fields_)
    for f, octant in zip(fields_, (True, True, False)):
        samples = f.values[(slice(16, None),) * 3] if octant else f.values
        assert sum(np.array_equal(args[0], samples) for args in trio) == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "all", "--d", "3", "--n", "64", "--q", "3", "--s", "0.5",
     "--corpus-size", "6"),
    ("estimate-constant", "--identity", "fractional", "--d", "3", "--s", "1", "--q", "2",
     "--n", "64", "--budget", "100"),
    ("hardy-check", "--identity", "gradient", "--d", "4", "--n", "32", "--q", "3",
     "--corpus-size", "8"),
], ids=["verify-d3", "estimate-d3", "gradient-d4"])
def test_benchmark_runs_build_only_octant_weight_tables(capsys, call_log, argv):
    # every singular weight table of the run is the octant x_i > 0 of its
    # grid: no full-size table is built
    table = spectral_core._refined_weight
    table.cache_clear()
    calls = call_log(spectral_core, "_refined_weight")
    code, _, _ = run(capsys, *argv, "--seed", "1")
    assert code == 0
    keys = set(calls)
    assert keys and table.cache_info().currsize == len(keys)
    for grid, exponent in keys:
        assert table(grid, exponent).shape == (grid.n // 2,) * grid.d


def test_gradient_check_fft_budget(capsys, fft_calls):
    spectral_core._derivative_matrix.cache_clear()
    code, _, _ = run(
        capsys, "hardy-check", "--identity", "gradient", "--d", "4", "--n", "16",
        "--q", "3", "--corpus-size", "6",
    )
    assert code == 0
    # the corpus is 2 Gaussians and 4 band fields (the power-law cutoffs do
    # not fit); each band field takes one d-D inverse, an ifft along each of
    # the 3 leading axes and one irfft.  On lines of n = 16 the gradient is a
    # product with the derivative matrix and takes no FFT per field; the
    # matrix is made once for the grid, by the transform pair on the unit
    # vectors in GRADIENT_SLABS slabs.  The weighted norm takes none
    slabs = GRADIENT_SLABS
    assert dict(fft_calls) == {"rfft": slabs, "irfft": slabs + 4, "ifft": 3 * 4}


def test_corpus_loop_frees_each_field_before_the_next_is_built(capsys, monkeypatch):
    inner = corpus.corpus_fields
    held = []

    def watched(*args, **kwargs):
        refs = []
        for label, f in inner(*args, **kwargs):
            refs.append(weakref.ref(f))
            yield label, f
            del f  # the consumer asks for the next field: count what is alive
            held.append(sum(ref() is not None for ref in refs))

    monkeypatch.setattr(corpus, "corpus_fields", watched)
    # stein-weiss-check held each field and its mean-free copy into the next
    for argv in (
        ("hardy-check", "--identity", "gradient", "--d", "4", "--n", "16", "--q", "3",
         "--corpus-size", "3"),
        ("stein-weiss-check", "--d", "3", "--n", "16", "--corpus-size", "3"),
    ):
        held.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and held == [0, 0, 0]


def test_gradient_check_output_does_not_depend_on_the_blas_threads():
    # each derivative-matrix product is small enough for OpenBLAS to keep on
    # the calling thread; the default thread count is the machine's cores
    argv = [sys.executable, "-m", "hardylp.cli", "hardy-check", "--identity",
            "gradient", "--d", "4", "--n", "32", "--corpus-size", "4"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    outs = [
        subprocess.run(argv, env=e, capture_output=True, text=True, check=True).stdout
        for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert outs[0] == outs[1] and json.loads(outs[0])


def test_estimate_constant_evaluates_each_distinct_point_once(
    capsys, monkeypatch, call_log, fft_calls
):
    trials = call_log(extremal, "_trial_quotient")
    estimates = []

    def recorded(*args, **kwargs):
        estimates.append(extremal.estimate_constant(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(cli, "estimate_constant", recorded)
    code, _, _ = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "3",
        "--s", "1", "--q", "2", "--n", "64", "--budget", "100",
    )
    assert code == 0
    # the sequence is 19 Gaussian, 55 truncated-power and 19 band points, of
    # which 7, 35 and 7 are distinct; a point met again is read from the
    # search's table, and still counts as an evaluation
    assert estimates[0].evaluations == 93
    search = [args[-1] for args in trials if args[1].n == 64]
    assert len(search) == len({tuple(sorted(p.items())) for p in search}) == 49
    assert len(trials) == 49 + 1  # and the trend's trial on the n = 128 grid
    # the 42 radial quotients and the trend's take their Sobolev norm from the
    # octant, by one rfft along each of the 3 axes; each band quotient reads
    # its field's box spectrum (q = 2, by Parseval) and takes no forward
    # rfftn, and each band field one inverse: an ifft along each of the 2
    # leading axes and one irfft
    assert dict(fft_calls) == {"rfft": 3 * 43, "ifft": 2 * 7, "irfft": 7}


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "stein-weiss", "--d", "2", "--n", "8", "--s", "0.5",
         "--corpus-size", "2"),
        ("--suite", "hardy", "--corpus-size", "0"),
        ("--suite", "chain", "--corpus-size", "0"),
    ],
    ids=["stein-weiss-coarse-grid", "hardy-empty", "chain-empty"],
)
def test_verify_builds_no_partition_it_does_not_use(capsys, monkeypatch, argv):
    import hardylp.cli as cli

    def no_partition(*args):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(cli, "build_partition", no_partition)
    code, _, _ = run(capsys, "verify", *argv)
    assert code == 0


def test_verify_band_fields_on_a_grid_below_16_is_exit_2(capsys):
    # the default corpus reaches the band family, whose default band
    # (2/L, n/(8L)) is empty on an n = 8 grid
    code, out, err = run(
        capsys, "verify", "--suite", "stein-weiss", "--d", "2", "--n", "8",
        "--s", "0.5",
    )
    assert code == 2
    assert out == ""
    assert "n >= 16, got n = 8" in err


def test_hardy_check_builds_the_partition_before_the_first_field(capsys):
    # an n = 8 grid is too coarse for both the partition and the band fields;
    # the corpus streams, so the partition is refused first
    code, out, err = run(
        capsys, "hardy-check", "--identity", "besov", "--d", "2", "--n", "8",
        "--corpus-size", "6",
    )
    assert (code, out) == (2, "")
    assert "grid too coarse" in err


FIELD_BYTES = 16**4 * 8  # one real field on the d = 4, n = 16 grid


@pytest.mark.parametrize(
    "argv",
    [
        ("hardy-check", "--identity", "gradient"),
        ("stein-weiss-check",),
        ("verify", "--suite", "stein-weiss", "--q", "3", "--s", "0.5"),
    ],
    ids=["hardy-check", "stein-weiss-check", "verify"],
)
def test_peak_memory_does_not_grow_with_the_corpus(capsys, argv):
    def peak(size):
        codes = []
        run_ = [*argv, "--d", "4", "--n", "16", "--corpus-size", str(size)]
        arrays = peak_field_arrays(lambda: codes.append(main(run_)), FIELD_BYTES)
        assert codes == [0]
        return arrays

    peak(8)  # fills the per-grid caches, which the runs below reuse
    # 3 fields are 2 Gaussians and 1 band field, so both families are built
    # at either size; the corpus streams, so 5 more fields add under one array
    assert peak(8) <= peak(3) + 1.0
    capsys.readouterr()


def test_verify_checks_of_an_even_field_peak_below_three_quarters_of_a_field():
    # an even field's classical, drift, specialization and chain checks read
    # its octant: 3.5 f, f - mean, |D|^s f and its Riesz potential are octant
    # arrays, an eighth of a field array each.  On the whole grid they peaked
    # at 1.10, 2.13, 5.07 and 2.06 field arrays.  Each check runs after what
    # verify reads before it: |D|^s f (the drift check's) before the
    # specialization, and the level pass (besov's) before the chain
    grid = make_grid(3, 64, 20.0)
    f = corpus.gaussian_field(grid, 0.075 * grid.L)
    part = littlewood_paley.build_partition(grid)
    runs = {
        "classical": (lambda v: None, lambda v: CHECKS["classical"].run(v, 0.03)),
        "drift": (lambda v: None, lambda v: cli._homogeneous_fractional(v, 0.03)),
        "specialization": (lambda v: v.sobolev, lambda v: cli._specialization(v, 0.03)),
        "chain": (lambda v: v.sums, lambda v: CHECKS["chain"].run(v, 0.03)),
    }
    for name, (before, check_) in runs.items():
        for _ in range(2):  # the first run fills the per-grid caches
            values = FieldValues(f, 0.5, 3.0, part, shells=True)
            assert values.f.octant is not None
            before(values)
            peak = peak_field_arrays(lambda: check_(values), f.values.nbytes)
        assert peak <= 0.75, (name, peak)


def test_verify_empty_corpus_vacuous_pass(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "hardy", "--corpus-size", "0",
    )
    assert code == 0
    assert json.loads(out) == []
    assert "0 checks" in err


# --- verify against the standalone calls ----------------------------------------

SHARED_PATH_TOL = 1e-14  # specialization: |D|^s f, not |D|^s (f - mean)


def _standalone_verify(d, n, q, s, size, suite, capsys):
    """The reports `verify` prints for suite, each from its standalone public
    call on the same corpus, with a relative tolerance per report: 0 where
    verify must match bitwise."""
    tail = ("--d", str(d), "--n", str(n), "--q", str(q), "--s", str(s))
    expected = []
    if suite == "all":
        code, out, _ = run(capsys, "schur-check", *tail, "--corpus-size", str(size))
        assert code == 0
        expected += [(rep, 0.0) for rep in json.loads(out)]
    grid = make_grid(d, n, 20.0)
    fields_ = list(corpus.corpus_fields(grid, size, 1, s=s, q=q))
    part = littlewood_paley.build_partition(grid)
    hardy, sw, chain = [], [], []
    params = SteinWeissParams(lam=d - s, p=q, q=q, alpha=0.0, beta=s, d=d)
    c = riesz_constant(d, d - s)
    for label, f in fields_:
        reps = [classical_hardy_quotient(f)] if d >= 3 else []
        reps += [gradient_hardy_quotient(f, q)] if q < d else []
        frac = check("fractional", f, s, q)
        scaled = check("fractional", f.with_values(3.5 * f.values), s, q)
        drift = abs(scaled.quotient - frac.quotient) / frac.quotient
        frac.passed, frac.tolerance = drift <= EXACT_TOL, EXACT_TOL
        frac.extra["homogeneity_drift"] = drift
        reps += [frac, check("besov", f, s, q, part)]
        reps += [check("refined", f, s, q, part)] if q > 2 else []
        hardy += [(rep, 0.0, label) for rep in reps]
        f0 = f.with_values(f.values - np.mean(f.values))
        base = check("fractional", f0, s, q)
        lifted = stein_weiss_check(fractional_laplacian(f0, s), params)
        ratio = lifted.quotient / (c * base.quotient)
        spec = CheckReport(
            identity="stein-weiss-specialization", d=d, n=n, L=20.0, s=s, q=q,
            lhs=lifted.quotient, rhs=c * base.quotient, quotient=ratio,
            tolerance=0.02, passed=abs(ratio - 1.0) <= 0.02,
            extra={"riesz_constant": c},
        )
        sw.append((spec, SHARED_PATH_TOL, label))
        chain.append((check("chain", f, s, q, part), 0.0, label))
        if q > 2:
            chain.append((check("holder-refinement", f, s, q, part), 0.0, label))
    coarse = make_grid(d, {2: 32, 3: 16}[d], 20.0)
    for label, g in corpus.corpus_fields(coarse, size, 1, s=s, q=q):
        sw.append((inner_ball_bound_check(g, s, q), 0.0, label))
    radii = geometric_radii(grid)
    profile = RadialProfile(radii, np.exp(-(radii**2) / 2.0))
    direct = inner_ball_potential_radial(profile, s, d, form="direct")
    subst = inner_ball_potential_radial(profile, s, d, form="substituted")
    mask = direct.values > 1e-12 * direct.values.max()
    rel = float(
        np.max(np.abs(direct.values[mask] - subst.values[mask]) / direct.values[mask])
    )
    radial = CheckReport(
        identity="radial-reduction", d=d, n=n, L=20.0, s=s, q=q, lhs=rel,
        rhs=0.005, tolerance=0.005, passed=rel <= 0.005,
    )
    sw.append((radial, 0.0, None))
    by_suite = {"hardy": hardy, "stein-weiss": sw, "chain": chain}
    for name in ("hardy", "stein-weiss", "chain"):
        if suite in (name, "all"):
            for rep, tol, label in by_suite[name]:
                if label is not None:
                    rep.extra["field"] = label
                expected.append((json.loads(reports_to_json([rep]))[0], tol))
    return expected


def _assert_matches(got, want, tol, path):
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_matches(got[key], want[key], tol, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, tol, f"{path}[{i}]")
    elif isinstance(want, float) and tol:
        assert abs(got - want) <= tol * max(abs(got), abs(want)), (path, got, want)
    else:
        assert got == want and type(got) is type(want), (path, got, want)


@pytest.mark.parametrize("suite", ["all", "hardy", "stein-weiss", "chain"])
@pytest.mark.parametrize(
    "d,q,s", [(3, 3.0, 0.5), (2, 2.0, 0.4)], ids=["d3-q3", "d2-q2"]
)
def test_verify_reports_equal_standalone_calls(capsys, d, q, s, suite):
    expected = _standalone_verify(d, 32, q, s, 6, suite, capsys)
    code, out, _ = run(
        capsys, "verify", "--suite", suite, "--d", str(d), "--n", "32",
        "--q", str(q), "--s", str(s), "--corpus-size", "6",
    )
    assert code == 0
    got = json.loads(out)
    assert [r["identity"] for r in got] == [r["identity"] for r, _ in expected]
    for i, (rep, (want, tol)) in enumerate(zip(got, expected)):
        _assert_matches(rep, want, tol, f"{rep['identity']}#{i}")


# --- norm command -----------------------------------------------------------------


def test_norm_lq_constant_field(capsys, const_field_file):
    code, out, _ = run(
        capsys, "norm", "--field", str(const_field_file), "--kind", "lq", "--q", "2",
    )
    assert code == 0
    value = json.loads(out)[0]["lhs"]
    assert value == pytest.approx(3.0, rel=1e-12)  # |c| * L^(d/q) with L = 1


def test_norm_sobolev_zero_order_equals_lq(capsys, band_field_file):
    code_a, out_a, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--kind", "sobolev",
        "--s", "0", "--q", "2",
    )
    code_b, out_b, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--kind", "lq", "--q", "2",
    )
    assert code_a == code_b == 0
    va = json.loads(out_a)[0]["lhs"]
    vb = json.loads(out_b)[0]["lhs"]
    assert va == pytest.approx(vb, rel=1e-12)


def test_norm_besov_reports_tail(capsys, band_field_file):
    code, out, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--kind", "besov",
        "--s", "0.5", "--q", "2", "--r", "2",
    )
    assert code == 0
    report = json.loads(out)[0]
    assert "last_level_contribution" in report["extra"]


def test_norm_kind_from_config(capsys, tmp_path, band_field_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kind": "weighted", "s": 0.5, "q": 2}')
    code, out, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--config", str(cfg)
    )
    assert code == 0
    assert json.loads(out)[0]["identity"] == "norm-weighted"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_norm_rejects_non_finite_samples(capsys, tmp_path, bad):
    vals = np.full(64, 3.0)
    vals[5] = bad
    path = tmp_path / "bad.hlf"
    write_field(path, make_field(make_grid(1, 64, 1.0), vals))
    code, out, err = run(capsys, "norm", "--field", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_reports_json_refuses_non_finite_values():
    rep = CheckReport(identity="norm-lq", d=1, n=64, L=1.0, lhs=float("nan"))
    with pytest.raises(ValueError):
        reports_to_json([rep])


def test_lp_command_prints_partition_record(capsys, band_field_file):
    code, out, _ = run(capsys, "lp", "--field", str(band_field_file))
    assert code == 0
    assert json.loads(out)[0]["extra"]["partition"]["profile"] == "bump-telescope-v1"


def test_lp_command_on_a_complex_field(capsys, tmp_path):
    # a complex field takes the complex FFT through the level pass; its piece
    # norms are those of the materialised stack
    grid = make_grid(2, 32, 20.0)
    f = random_mean_zero_field(grid, seed=320)
    path = tmp_path / "complex.hlf"
    write_field(path, f)
    code, out, _ = run(capsys, "lp", "--field", str(path))
    assert code == 0
    part = littlewood_paley.build_partition(grid)
    norms = stack_level_norms(f, weighted_stack(f, part, 0.0), 2.0)
    assert [r["s"] for r in json.loads(out)] == list(part.levels)
    assert [r["lhs"] for r in json.loads(out)] == norms.tolist()


# --- check commands -----------------------------------------------------------------


def test_hardy_check_classical(capsys):
    code, out, _ = run(
        capsys, "hardy-check", "--identity", "classical", "--d", "3", "--n", "32",
        "--corpus-size", "3",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)


def test_schur_check(capsys):
    code, out, _ = run(capsys, "schur-check", "--s", "1", "--d", "3", "--q", "2")
    assert code == 0
    reports = json.loads(out)
    kinds = {r["identity"] for r in reports}
    assert "schur-row-sum" in kinds and "schur-bound" in kinds


def test_stein_weiss_check_defaults(capsys):
    code, out, _ = run(
        capsys, "stein-weiss-check", "--d", "2", "--n", "32", "--s", "0.5",
        "--q", "2", "--corpus-size", "2",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["identity"] == "stein-weiss" for r in reports)


def test_stein_weiss_check_of_even_fields_reads_their_octants(capsys, fft_calls):
    # the two Gaussians' f - mean and Riesz potentials are taken on their
    # octants, one DCT pair each, an rfft and an irfft along each of the 3
    # axes: no d-D transform.  The values are the parity matrix's
    # (test_parity.py, row mean_free_stein_weiss)
    code, out, _ = run(
        capsys, "stein-weiss-check", "--d", "3", "--n", "64", "--q", "3", "--s", "0.5",
        "--corpus-size", "2",
    )
    assert code == 0 and len(json.loads(out)) == 2
    assert dict(fft_calls) == {"rfft": 2 * 3, "irfft": 2 * 3}


def test_mean_free_stein_weiss_of_an_even_field_peaks_below_one_field():
    # f - mean, its Riesz potential and both weighted sums are octant arrays;
    # on the whole grid the check peaked at 4.06 field arrays, here 0.57
    grid = make_grid(3, 64, 20.0)
    params = SteinWeissParams(lam=2.5, p=3.0, q=3.0, alpha=0.0, beta=0.5, d=3)
    for _, f in corpus.corpus_fields(grid, 2, 1, s=0.5, q=3.0):
        for _ in range(2):  # the first run fills the per-grid caches
            values = FieldValues(f, 0.5, 3.0)
            peak = peak_field_arrays(
                lambda: cli._mean_free_stein_weiss(values, params), f.values.nbytes
            )
        assert values.f.octant is not None and peak < 1.0, peak


def test_decay_warnings_skip_fields_with_a_box_spectrum(capsys, band_field_file):
    # a band field is a trigonometric polynomial, exactly periodic on the box:
    # of the benchmark's gradient run, only the wider Gaussian is flagged,
    # 1.03e-8 at the faces.  The same samples read from a file carry no box
    # and are flagged
    code, out, err = run(
        capsys, "hardy-check", "--identity", "gradient", "--d", "4", "--n", "32",
        "--q", "3", "--corpus-size", "8", "--seed", "1",
    )
    assert code == 0 and len(json.loads(out)) == 8
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0].startswith("warning: gaussian-0.08:")
    code, _, err = run(capsys, "norm", "--field", str(band_field_file))
    assert code == 0 and err.count("warning:") == 1


def test_estimate_constant_builds_partition_only_when_needed(capsys):
    # the fractional quotient uses no dyadic partition, so a grid too coarse
    # for one still runs
    code, out, err = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "2",
        "--n", "16", "--s", "0.5", "--budget", "3",
    )
    assert code == 0, err
    assert [t["n"] for t in json.loads(out)["trend"]] == [16, 32]


def test_estimate_constant_rejects_csv_format(capsys):
    code, out, err = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "2",
        "--n", "16", "--s", "0.5", "--budget", "3", "--format", "csv",
    )
    assert code == 2
    assert out == ""
    assert "JSON only" in err


def test_estimate_constant_command(capsys):
    code, out, _ = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "3",
        "--s", "1", "--q", "2", "--budget", "3", "--n", "32",
    )
    assert code == 0
    est = json.loads(out)
    assert est["identity"] == "fractional"
    assert [t["n"] for t in est["trend"]] == [32, 64]


# --- sweep ------------------------------------------------------------------------


def test_sweep_csv_shape(capsys):
    code, out, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "s",
        "--values", "0.2,0.4,0.6", "--d", "2", "--n", "32", "--q", "2",
        "--corpus-size", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,d,n,L,s,q,lhs,rhs,quotient,pass"
    assert len(lines) == 1 + 3 * 2
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[0] == "fractional"
        assert np.isfinite(float(cells[8]))


def test_sweep_refinement_stability(capsys):
    # the gaussian-family quotients move by < 5% across n in {32, 64, 128}
    code, out, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "n",
        "--values", "32,64,128", "--d", "2", "--s", "0.4", "--q", "2",
        "--corpus-size", "2", "--seed", "5",
    )
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    by_n = {}
    for cells in rows:
        by_n.setdefault(int(cells[2]), []).append(float(cells[8]))
    for idx in range(2):
        values = [by_n[n][idx] for n in (32, 64, 128)]
        spread = (max(values) - min(values)) / max(values)
        assert spread < 0.05, values


def test_sweep_empty_range_exit_2(capsys):
    code, _, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "s", "--values", "",
    )
    assert code == 2


@pytest.mark.parametrize("values", ["inf", "32,nan"])
def test_sweep_refuses_non_finite_values(capsys, values):
    code, out, err = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "n",
        "--values", values, "--d", "2", "--q", "2",
    )
    assert code == 2
    assert out == ""
    assert "sweep values must be finite" in err


def test_sweep_single_point_matches_hardy_check(capsys):
    code, out_sweep, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "s",
        "--values", "0.4", "--d", "2", "--n", "32", "--q", "2",
        "--corpus-size", "2", "--seed", "5",
    )
    assert code == 0
    code, out_check, _ = run(
        capsys, "hardy-check", "--identity", "fractional", "--d", "2", "--n", "32",
        "--s", "0.4", "--q", "2", "--corpus-size", "2", "--seed", "5",
        "--format", "csv",
    )
    assert code == 0
    assert out_sweep == out_check


# d=3, q=2.5, s=0.5 admits every identity in the table
@pytest.mark.parametrize(
    "identity,extra,code",
    [pytest.param(name, (), 0, id=name) for name in IDENTITIES]
    + [pytest.param("classical", ("--tolerance", "-0.9"), 1, id="tolerance")],
)
def test_sweep_matches_hardy_check_for_each_identity(capsys, identity, extra, code):
    common = (
        "--identity", identity, "--d", "3", "--n", "32", "--q", "2.5",
        "--corpus-size", "2", "--seed", "5", *extra,
    )
    code_sweep, out_sweep, _ = run(
        capsys, "sweep", "--axis", "s", "--values", "0.5", *common
    )
    code_check, out_check, _ = run(
        capsys, "hardy-check", "--s", "0.5", "--format", "csv", *common
    )
    assert code_sweep == code_check == code
    assert out_sweep == out_check


def _subparsers():
    parser = _build_parser()
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def _identity_choices(command):
    sub = _subparsers()[command]
    return tuple(next(a.choices for a in sub._actions if a.dest == "identity"))


def test_identity_choices_come_from_the_table():
    assert _identity_choices("hardy-check") == tuple(IDENTITIES)
    assert _identity_choices("sweep") == tuple(IDENTITIES)
    assert _identity_choices("estimate-constant") == ESTIMATE_IDENTITIES


# --- flags per command ------------------------------------------------------------

# one valid value for each flag of the table
FLAG_VALUES = {
    "config": "cfg.json", "d": "3", "n": "32", "L": "20", "s": "0.5", "q": "2",
    "r": "2", "corpus-size": "2", "seed": "1", "tolerance": "0.1", "out": "o.json",
    "format": "json", "coverage": "0.5", "field": "f.hlf", "kind": "lq",
    "identity": "fractional", "lam": "2", "alpha": "0", "beta": "0.5", "p": "2",
    "budget": "3", "axis": "s", "values": "0.5", "start": "0.1", "stop": "0.5",
    "step": "0.1", "suite": "all",
}

# flags every command took before each took only the flags its handler reads;
# none of these is read by its command, so each is a usage error
UNREAD_FLAGS = {
    "norm": "d n L corpus-size seed tolerance",
    "lp": "d n L s q r corpus-size seed tolerance",
    "hardy-check": "r",
    "verify": "r",
    "schur-check": "r tolerance coverage",
    "stein-weiss-check": "r tolerance coverage",
    "estimate-constant": "r corpus-size tolerance coverage",
    "sweep": "r format",
}


def _flag_argv(command, flag):
    needs_field = command in ("norm", "lp") and flag != "field"
    return [command, *(("--field", "f.hlf") if needs_field else ()),
            f"--{flag}", FLAG_VALUES[flag]]


@pytest.mark.parametrize("flag", list(FLAGS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_takes_only_the_flags_it_reads(capsys, command, flag):
    argv = _flag_argv(command, flag)
    if flag == "config" or flag in COMMAND_FLAGS[command].split():
        args = _build_parser().parse_args(argv)
        dest = FLAGS[flag].get("dest", flag.replace("-", "_"))
        assert getattr(args, dest) is not None
    else:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c, flags in UNREAD_FLAGS.items() for f in flags.split()],
)
def test_unread_flag_is_a_usage_error(capsys, command, flag):
    assert flag not in COMMAND_FLAGS[command].split()
    code, out, _ = run(capsys, *_flag_argv(command, flag))
    assert code == 2
    assert out == ""


def test_unread_flag_is_reported_with_the_commands_usage(capsys):
    code, out, err = run(capsys, "schur-check", "--tolerance", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: hardylp schur-check ")
    assert err.rstrip().endswith(
        "hardylp schur-check: error: unrecognized arguments: --tolerance 0.5"
    )


def test_flag_slot_counts():
    taken = sum(1 + len(flags.split()) for flags in COMMAND_FLAGS.values())
    unread = sum(len(flags.split()) for flags in UNREAD_FLAGS.values())
    assert (taken, unread) == (92, 29)
    assert set(FLAG_VALUES) == set(FLAGS)


def test_every_config_field_is_some_commands_flag():
    dests = {
        a.dest for sub in _subparsers().values() for a in sub._actions
    } - {"help", "config"}
    assert dests == {f.name for f in fields(RunConfig)} - {"command"}


def _readme_cli_section():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split("## CLI", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_parse():
    block = _readme_cli_section().split("```sh", 1)[1].split("```", 1)[0]
    argvs = [
        shlex.split(line)[1:] for line in block.splitlines()
        if line.startswith("hardylp ")
    ]
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    for argv in argvs:
        _build_parser().parse_args(argv)


def test_readme_flag_table_matches_the_parser():
    rows = {}
    for line in _readme_cli_section().splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().strip("`") in COMMANDS:
            words = cells[2].split()
            rows[cells[1].strip().strip("`")] = {
                w.strip("`")[2:] for w in words if w.startswith("`--")
            }
    assert rows == {c: set(flags.split()) for c, flags in COMMAND_FLAGS.items()}


# --- report shape ---------------------------------------------------------------------


def test_chain_suite_report_keys(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "chain", "--d", "2", "--n", "32", "--s", "0.4",
        "--q", "3", "--corpus-size", "1",
    )
    assert code == 0
    chain, holder = json.loads(out)
    assert chain["identity"] == "chain"
    assert set(chain) == {
        "L", "d", "extra", "identity", "lhs", "links", "n", "passed", "q",
        "quotient", "rhs", "s",
    }
    assert set(chain["extra"]) == {
        "field", "localization_constant", "schur_a1", "schur_a2", "shell_factor",
        "worst_pair",
    }
    assert [link["name"] for link in chain["links"]] == [
        "shell-majorant", "shell-localization", "schur-bound",
    ]
    for link in chain["links"]:
        assert set(link) == {"lhs", "name", "passed", "ratio", "rhs"}
    assert holder["identity"] == "holder-refinement"
    assert set(holder) == {
        "L", "d", "extra", "identity", "lhs", "n", "passed", "q", "quotient",
        "rhs", "s", "tolerance",
    }
    assert set(holder["extra"]) == {"field", "mid"}


# --- config and determinism -----------------------------------------------------------


def test_config_round_trip():
    cfg = RunConfig(command="verify", d=2, n=64, s=0.7, q=3.0, seed=11)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_json('{"bogus": 1}')


@pytest.mark.parametrize(
    "text", ['{"n": "32"}', '{"corpus_size": 2.5}', '{"seed": true}']
)
def test_config_value_of_wrong_type_exit_2(capsys, tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, "hardy-check", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "config error" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_tolerance_flag_exit_2(capsys, tmp_path, value):
    # inf passed every check and nan failed every one, after all had run
    argv = (
        "hardy-check", "--identity", "classical", "--d", "3", "--n", "32",
        "--corpus-size", "2", f"--tolerance={value}", "--format", "csv",
    )
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "tolerance must be finite" in err
    target = tmp_path / "reports.csv"
    assert run(capsys, *argv, "--out", str(target))[0] == 2
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("schur-check", "--d", "3", "--s", "nan"),
        ("verify", "--suite", "all", "--d", "3", "--n", "16", "--s", "nan",
         "--corpus-size", "2"),
    ],
    ids=["schur-check", "verify"],
)
def test_nan_smoothness_exit_2(capsys, argv):
    # NaN fails every comparison, so it is refused with the config, before a
    # range test could let it through
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "config error: s must be finite, got nan" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--kind", "lq", "--q", "nan"),
        ("--kind", "weighted", "--s", "nan"),
        ("--kind", "sobolev", "--s", "nan"),
        ("--kind", "besov", "--s", "nan"),
        ("--kind", "besov", "--r", "nan"),
        ("--kind", "sobolev", "--s", "inf"),
    ],
    ids=["lq-q-nan", "weighted-s-nan", "sobolev-s-nan", "besov-s-nan", "besov-r-nan",
         "sobolev-s-inf"],
)
def test_norm_refuses_non_finite_parameters(capsys, band_field_file, flags, fmt):
    # these printed a row of nan and exited 0 in CSV
    code, out, err = run(
        capsys, "norm", "--field", str(band_field_file), *flags, "--format", fmt
    )
    assert (code, out) == (2, "")
    assert f"config error: {flags[2][2:]} must be finite, got {flags[3]}" in err


def test_norm_takes_an_infinite_exponent(capsys, band_field_file):
    code, out, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--kind", "triebel-lizorkin",
        "--s", "0.5", "--q", "2", "--r", "inf",
    )
    assert code == 0
    assert np.isfinite(json.loads(out)[0]["lhs"])


@pytest.mark.parametrize("kind", ["besov", "triebel-lizorkin"])
def test_norm_refuses_r_below_1_before_reading_the_field(capsys, tmp_path, kind):
    # these ran the whole level pass, then exited 2 on words naming p and q
    # (or p and r); the field file need not exist for the refusal
    argv = ("norm", "--field", str(tmp_path / "none.hlf"), "--kind", kind, "--r", "0.5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "config error: r must be >= 1 or inf, got 0.5" in err


def test_norm_max_norm_prints_strict_json_and_csv(capsys, band_field_file):
    # the report's q = inf made the JSON output exit 2 ("Out of range float
    # values are not JSON compliant"); strict JSON holds it as the string "inf"
    argv = ("norm", "--field", str(band_field_file), "--kind", "lq", "--q", "inf")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    (rep,) = json.loads(out, parse_constant=pytest.fail)
    assert rep["q"] == "inf"
    want = float(np.abs(read_field(band_field_file).values).max())
    assert rep["lhs"] == want
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == f"norm-lq,2,64,20.0,1.0,inf,{want!r},0.0,,"


@pytest.mark.parametrize("s", ["0.05", "0.06", "1.45"])
def test_schur_row_sums_near_the_ends_are_computed(capsys, s):
    # these exited 3 with OverflowError
    code, out, _ = run(capsys, "verify", "--suite", "schur", "--d", "3", "--n", "32",
                       "--q", "2", "--corpus-size", "1", "--s", s)
    assert code == 0
    assert json.loads(out)[0]["identity"] == "schur-row-sum"


@pytest.mark.parametrize(
    "argv,span",
    [
        (("--d", "3", "--q", "2", "--s", "0.04"), 1126),
        (("--d", "3", "--q", "2", "--s", "1e-5"), 5700154),
        (("--d", "3", "--q", "2", "--s", "1.48"), 2302),
        (("--d", "2", "--q", "1e10", "--s", "1e-12", "--suite", "all"), 80255113388191),
    ],
    ids=["s-0.04", "s-1e-5", "s-1.48", "q-1e10"],
)
def test_schur_row_sums_past_the_float_span_exit_2(capsys, argv, span):
    # these exited 3 with ZeroDivisionError; the last would have summed 1e14
    # terms had it not
    code, out, err = run(capsys, "verify", "--suite", "schur", "--n", "32",
                         "--corpus-size", "1", *argv)
    assert (code, out) == (2, "")
    assert f"need a truncation span of {span} dyadic levels" in err


def test_verify_schur_row_sum_report_is_unchanged(capsys):
    # the verify-d3 argv's row-sum report, byte for byte
    code, out, _ = run(capsys, "verify", "--suite", "schur", "--d", "3", "--n", "64",
                       "--q", "3", "--s", "0.5", "--corpus-size", "6")
    assert code == 0
    want = (
        '{"L": 20.0, "d": 3, "extra": {"sum_over_shells": 5.82842712474619}, '
        '"identity": "schur-row-sum", "lhs": 5.82842712474619, "n": 64, '
        '"passed": true, "q": 3.0, "quotient": 0.9999999999999997, '
        '"rhs": 5.828427124746192, "s": 0.5, "tolerance": 1e-10}'
    )
    assert json.dumps(json.loads(out)[0], sort_keys=True) == want


@pytest.mark.parametrize(
    "argv",
    [
        ("schur-check", "--corpus-size", "-3"),
        ("verify", "--suite", "schur", "--corpus-size", "-5"),
    ],
    ids=["schur-check", "verify"],
)
def test_negative_corpus_size_exit_2(capsys, argv):
    # these ran 20 Schur trials and exited 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"corpus size must be >= 0, got {argv[-1]}" in err


def test_sweep_refuses_a_range_above_the_cap_before_making_it(capsys, monkeypatch):
    # this range has 1e18 points; np.arange failed on it with a MemoryError
    def no_range(*args, **kwargs):
        raise AssertionError("the range was made")

    monkeypatch.setattr(np, "arange", no_range)
    code, out, err = run(
        capsys, "sweep", "--identity", "fractional", "--d", "3", "--n", "32",
        "--axis", "s", "--start", "0.1", "--stop", "1e9", "--step", "1e-9",
        "--corpus-size", "1",
    )
    assert (code, out) == (2, "")
    assert f"has 1e+18 points, more than {cli.MAX_SWEEP_POINTS}" in err


def test_sweep_refuses_a_start_far_past_the_stop_before_making_it(capsys, monkeypatch):
    # this range has -1e301 points; np.arange refused it with "Maximum
    # allowed size exceeded", which names no flag
    def no_range(*args, **kwargs):
        raise AssertionError("the range was made")

    monkeypatch.setattr(np, "arange", no_range)
    code, out, err = run(
        capsys, "sweep", "--identity", "fractional", "--d", "3", "--n", "16",
        "--axis", "s", "--start", "1e300", "--stop", "0.5", "--step", "0.1",
    )
    assert (code, out) == (2, "")
    assert "empty sweep range" in err


@pytest.mark.parametrize(
    "start, stop, step, want",
    [("0.5", "1.0", "0.25", [0.5, 0.75, 1.0]), ("1.0", "0.5", "-0.25", [1.0, 0.75, 0.5])],
)
def test_sweep_range_keeps_its_stop_in_either_direction(capsys, start, stop, step, want):
    # the stop was padded upward whatever the step's sign, so a descending
    # range dropped it
    code, out, _ = run(
        capsys, "sweep", "--identity", "fractional", "--d", "3", "--n", "16",
        "--q", "2", "--corpus-size", "1", "--axis", "s",
        "--start", start, "--stop", stop, "--step", step,
    )
    assert code == 0
    assert [float(row.split(",")[4]) for row in out.strip().splitlines()[1:]] == want


def test_sweep_refuses_a_zero_step(capsys):
    # it named no flag: "sweep needs --values or --start/--stop/--step"
    code, out, err = run(
        capsys, "sweep", "--identity", "fractional", "--d", "3", "--n", "16",
        "--axis", "s", "--start", "0.5", "--stop", "1.0", "--step", "0",
    )
    assert (code, out) == (2, "")
    assert "config error: step must be finite and nonzero, got 0.0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--suite", "stein-weiss", "--s", "0"),
         "error: kernel order must satisfy 0 < lam < d; got lam = 3.0"),
        (("--suite", "hardy", "--s", "-0.5"),
         "error: need 0 <= s < d/q = 1, got s = -0.5"),
    ],
    ids=["stein-weiss-s-0", "hardy-negative-s"],
)
def test_verify_refuses_a_field_check_out_of_range(capsys, argv, message):
    # each check refuses its own range before reading a value of the field
    code, out, err = run(
        capsys, "verify", *argv, "--d", "3", "--n", "32", "--q", "3",
        "--corpus-size", "2",
    )
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_tolerance_in_config_exit_2(capsys, tmp_path, token):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"identity": "classical", "d": 3, "n": 32, "tolerance": {token}}}')
    target = tmp_path / "reports.json"
    for out_args in ((), ("--out", str(target))):
        code, out, err = run(capsys, "hardy-check", "--config", str(path), *out_args)
        assert (code, out) == (2, "")
        assert "tolerance must be finite" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('"abc"', "must hold a JSON object"),
        ("[1, 2]", "must hold a JSON object"),
        ("null", "must hold a JSON object"),
        ("5", "must hold a JSON object"),
        ('{"fmt": "xml"}', "unknown report format 'xml'"),
    ],
    ids=["string", "array", "null", "number", "format"],
)
def test_config_refused_before_any_check(capsys, tmp_path, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, *OUT_COMMANDS["schur-check"], "--config", str(path))
    assert (code, out) == (2, "")
    assert message in err


def test_config_int_accepted_for_float_field():
    cfg = RunConfig.from_json('{"L": 20, "tolerance": null}')
    assert cfg.L == 20.0 and isinstance(cfg.L, float)
    assert cfg.tolerance is None


def test_config_identity_reaches_hardy_check(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"identity": "classical", "d": 3, "corpus_size": 1}')
    code, out, _ = run(capsys, "hardy-check", "--config", str(path))
    assert code == 0
    assert [r["identity"] for r in json.loads(out)] == ["classical"]


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = RunConfig(command="schur-check", d=3, s=1.0, q=2.0)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    code, out, _ = run(capsys, "schur-check", "--config", str(path), "--s", "0.5")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["s"] == 0.5


def test_verify_deterministic_byte_identical(capsys):
    args = (
        "verify", "--suite", "all", "--d", "2", "--n", "32", "--s", "0.4",
        "--corpus-size", "3", "--seed", "7",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_internal_error_exit_3(capsys, monkeypatch):
    def boom(cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "schur-check", boom)
    code, _, err = run(capsys, "schur-check", "--s", "1", "--d", "3", "--q", "2")
    assert code == 3
    assert "internal error" in err


def test_out_file_appends(capsys, tmp_path):
    out_path = tmp_path / "reports.json"
    args = (
        "schur-check", "--s", "1", "--d", "3", "--q", "2", "--out", str(out_path),
    )
    assert main(list(args)) == 0
    first = json.loads(out_path.read_text())
    assert main(list(args)) == 0
    second = json.loads(out_path.read_text())
    assert len(second) == 2 * len(first)


OUT_COMMANDS = {
    "schur-check": ("schur-check", "--s", "1", "--d", "3", "--q", "2"),
    "estimate-constant": (
        "estimate-constant", "--identity", "fractional", "--d", "3", "--s", "1",
        "--q", "2", "--budget", "1", "--n", "16",
    ),
}


@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_out_refuses_non_json_file(capsys, tmp_path, command):
    target = tmp_path / "notes.txt"
    target.write_text("my notes\n")
    code, _, err = run(capsys, *OUT_COMMANDS[command], "--out", str(target))
    assert code == 2
    assert "refusing" in err
    assert target.read_text() == "my notes\n"
    assert list(tmp_path.iterdir()) == [target]  # no temporary file left


def test_out_that_cannot_be_opened_is_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, *OUT_COMMANDS["schur-check"], "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "internal error" not in err


def test_out_refuses_json_that_is_not_a_report_array(capsys, tmp_path):
    target = tmp_path / "estimate.json"
    target.write_text('{"best": 1.0}\n')
    code, _, err = run(capsys, *OUT_COMMANDS["schur-check"], "--out", str(target))
    assert code == 2
    assert target.read_text() == '{"best": 1.0}\n'


CSV_ARGV = (
    "hardy-check", "--identity", "fractional", "--d", "2", "--n", "16", "--s",
    "0.5", "--corpus-size", "1", "--format", "csv",
)


def test_csv_out_writes_the_header_once(capsys, tmp_path):
    target = tmp_path / "reports.csv"
    target.touch()  # an empty file takes the header like a new one
    assert main([*CSV_ARGV, "--out", str(target)]) == 0
    assert main([*CSV_ARGV, "--out", str(target)]) == 0
    header, row, again = target.read_text().splitlines()
    assert header == CSV_HEADER
    assert again == row


def test_csv_out_refuses_a_file_that_is_not_csv(capsys, tmp_path):
    target = tmp_path / "reports.json"
    assert run(capsys, *OUT_COMMANDS["schur-check"], "--out", str(target))[0] == 0
    before = target.read_bytes()
    code, out, err = run(capsys, *CSV_ARGV, "--out", str(target))
    assert (code, out) == (2, "")
    assert "refusing" in err
    assert target.read_bytes() == before
    assert run(capsys, *OUT_COMMANDS["schur-check"], "--out", str(target))[0] == 0
    assert len(json.loads(target.read_text())) == 2 * len(json.loads(before))


def test_estimate_out_replaces_json_file(capsys, tmp_path):
    target = tmp_path / "estimate.json"
    target.write_text("[1, 2]\n")
    code, out, _ = run(capsys, *OUT_COMMANDS["estimate-constant"], "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)
    assert list(tmp_path.iterdir()) == [target]


def test_estimate_constant_refuses_oversized_trend_grid(capsys, monkeypatch):
    # n = 256 is allowed in d = 3, its 2n trend grid is not; the refusal
    # comes before the first trial, on the octant path or the full grid
    import hardylp.extremal as extremal

    def no_trial(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(extremal, "_radial_profile", no_trial)
    code, out, err = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "3",
        "--n", "256", "--s", "1", "--budget", "3",
    )
    assert code == 2
    assert out == ""
    assert "134217728 samples" in err


def test_estimate_constant_refuses_infinite_box(capsys):
    code, out, err = run(
        capsys, "estimate-constant", "--d", "3", "--n", "16", "--s", "1",
        "--q", "2", "--budget", "3", "--L", "inf",
    )
    assert code == 2
    assert out == ""
    assert "box length must be positive and finite, got inf" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate-constant", "--s", "1", "--q", "2", "--budget", "3"),
        ("hardy-check", "--identity", "fractional", "--s", "1", "--q", "2",
         "--corpus-size", "1"),
        ("verify", "--suite", "all", "--corpus-size", "1"),
    ],
    ids=["estimate-constant", "hardy-check", "verify"],
)
@pytest.mark.parametrize("L", ["1e200", "1e-200"])
def test_box_length_out_of_range_exit_2(capsys, argv, L):
    # 1e200 exited 3 on an OverflowError, 1e-200 blamed a sample at |x| = 0
    code, out, err = run(capsys, *argv, "--d", "3", "--n", "16", "--L", L)
    assert code == 2
    assert out == ""
    assert f"box length must lie in [2.56e-38, 1e+40] in d = 3, got {float(L)}" in err


def test_estimate_is_the_same_at_both_ends_of_the_box_range(capsys):
    # the fractional quotient is invariant under dilation
    bests = []
    for L in ("2.56e-38", "20", "1e40"):
        code, out, _ = run(
            capsys, "estimate-constant", "--d", "3", "--n", "16", "--s", "1",
            "--q", "2", "--budget", "12", "--L", L,
        )
        assert code == 0
        bests.append(json.loads(out)["best"])
    assert bests[0] == pytest.approx(bests[1], rel=1e-9)
    assert bests[2] == pytest.approx(bests[1], rel=1e-9)


def test_radial_reduction_is_scale_invariant(capsys):
    # its profile has width L / 20, as its radii scale with L; a fixed width
    # failed the check at L = 600 and exited 2 from L = 1e5 on
    lhs = []
    for L in ("0.01", "20", "600", "1000", "1e5", "1e20"):
        code, out, _ = run(
            capsys, "verify", "--suite", "stein-weiss", "--d", "3", "--n", "32",
            "--q", "3", "--s", "0.5", "--corpus-size", "2", "--L", L,
        )
        assert code == 0
        (report,) = [r for r in json.loads(out) if r["identity"] == "radial-reduction"]
        assert report["passed"] is True
        lhs.append(report["lhs"])
    assert max(lhs) - min(lhs) <= 1e-12 * lhs[1]


def test_unknown_field_file_code_is_exit_2(capsys, const_field_file):
    raw = bytearray(const_field_file.read_bytes())
    raw[28] = 9  # the HLF2 dtype byte
    const_field_file.write_bytes(bytes(raw))
    code, out, err = run(capsys, "norm", "--field", str(const_field_file))
    assert code == 2
    assert out == ""
    assert "unknown field dtype code 9" in err


# --- the domain table -------------------------------------------------------------


def test_every_config_key_has_a_domain():
    # a key added without one fails here: choices, a DOMAINS entry, the
    # finite-float rule, or a place among the keys left to what reads them
    specs = {s.get("dest", flag.replace("-", "_")): s for flag, s in FLAGS.items()}
    hints = typing.get_type_hints(RunConfig)
    assert set(cli.DOMAINS) | set(cli.FREE_KEYS) <= set(hints)
    assert not set(cli.DOMAINS) & set(cli.FREE_KEYS)
    for key, hint in hints.items():
        assert (
            "choices" in specs.get(key, {})
            or key in cli.DOMAINS
            or float in (typing.get_args(hint) or (hint,))
            or key in cli.FREE_KEYS
        ), key


S = ("--s", "0.5")  # a smoothness every command in these runs takes
Q0 = "config error: q must be > 0 or inf, got 0.0"
POINTS = "points per axis must be a power of two >= 8"
BOX = "box length must be positive and finite"
SEED = "config error: seed must be >= 0, got -1"
TOL = "config error: tolerance must be finite and > -1, got -1.0"
SWEEP = ("sweep", "--identity", "fractional", "--axis", "s", "--start", "0.5",
         "--stop", "0.5", "--step", "0.1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hardy-check", "--identity", "classical", "--q", "0"), Q0),
        (("hardy-check", "--identity", "fractional", *S, "--q", "0"), Q0),
        (("schur-check", *S, "--q", "0"), Q0),
        (("stein-weiss-check", "--q", "0"), Q0),
        (("estimate-constant", "--s", "1", "--budget", "3", "--q", "0"), Q0),
        ((*SWEEP, "--q", "0"), Q0),
        (("verify", *S, "--q", "0"), Q0),
        (("stein-weiss-check", "--p", "0"),
         "config error: p must be finite and > 0, got 0.0"),
        (("stein-weiss-check", "--d", "0"), "argument --d: invalid choice: 0"),
        (("schur-check", *S, "--n", "-1"), f"{POINTS}, got -1"),
        (("schur-check", *S, "--n", "0"), f"{POINTS}, got 0"),
        (("schur-check", *S, "--L", "-1"), f"{BOX}, got -1.0"),
        (("schur-check", *S, "--L", "0"), f"{BOX}, got 0.0"),
        (("hardy-check", "--identity", "fractional", *S, "--corpus-size", "2",
          "--seed", "-1"), SEED),
        (("schur-check", *S, "--seed", "-1"), SEED),
        (("verify", *S, "--seed", "-1"), SEED),
        (("verify", *S, "--tolerance", "-1"), TOL),
        (("hardy-check", "--identity", "classical", "--tolerance", "-1"), TOL),
        ((*SWEEP, "--tolerance", "-1"), TOL),
    ],
    ids=["hardy-check-classical-q", "hardy-check-fractional-q", "schur-check-q",
         "stein-weiss-check-q", "estimate-constant-q", "sweep-q", "verify-q",
         "stein-weiss-check-p", "stein-weiss-check-d", "schur-check-n-1",
         "schur-check-n0", "schur-check-L-1", "schur-check-L0", "hardy-check-seed",
         "schur-check-seed", "verify-seed", "verify-tolerance",
         "hardy-check-tolerance", "sweep-tolerance"],
)
def test_value_outside_its_domain_exit_2(capsys, argv, message):
    # the first nine exited 3 on a ZeroDivisionError, schur-check, which
    # reads no field, put the next four in its reports and exited 0,
    # hardy-check took the seed -1 and exited 0, schur-check and verify
    # refused it with numpy's words, which name no key, and a tolerance of -1
    # zeroed every bound and failed every check (exit 1)
    code, out, err = run(capsys, argv[0], "--d", "3", "--n", "16", *argv[1:])
    assert (code, out) == (2, "")
    assert message in err
    assert "internal error" not in err


SW_PARAMS = SteinWeissParams(lam=2.5, p=2.0, q=2.0, alpha=0.0, beta=0.5, d=3)
# one direct call per validator that divided by q, p or d before testing it
DIVIDING_CALLS = {
    "hardy-fractional-q": lambda f: fractional_hardy_quotient(FieldValues(f, 0.5, 0.0)),
    "schur-kernel-q": lambda f: hardy_kernel(0.5, 3, 0.0),
    "schur-row-sums-q": lambda f: hardy_row_sums(0.5, 3, 0.0),
    "corpus-q": lambda f: list(corpus.corpus_fields(f.grid, 3, 1, 0.5, 0.0)),
    "stein-weiss-p": lambda f: replace(SW_PARAMS, p=0.0).require(),
    "stein-weiss-q": lambda f: replace(SW_PARAMS, q=0.0).require(),
    "stein-weiss-d": lambda f: replace(SW_PARAMS, d=0).require(),
}


@pytest.mark.parametrize("name", list(DIVIDING_CALLS))
def test_validators_check_what_they_divide_by_first(name):
    # each raised ZeroDivisionError
    f = random_band_limited_field(make_grid(3, 16, 20.0), 1)
    with pytest.raises(ValueError):
        DIVIDING_CALLS[name](f)


FUZZ_FLOATS = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "0.999", "1")
FUZZ_INTS = ("-1", "0", "1", "2", "5")
# Small valid runs at d = 3, n = 16 for each command that takes --d; verify
# takes coverage 1, as coverage 0.5 leaves too few dyadic levels at n = 16.
FUZZ_RUNS = {
    "hardy-check": ("--identity", "fractional", *S, "--corpus-size", "2"),
    "schur-check": (*S, "--corpus-size", "2"),
    "stein-weiss-check": ("--corpus-size", "2"),
    "estimate-constant": ("--s", "1", "--budget", "3"),
    "sweep": (*SWEEP[1:], "--corpus-size", "1"),
    "verify": (*S, "--corpus-size", "2", "--coverage", "1"),
}
# Left out: values that only make the run larger.  --corpus-size 5 and
# --budget 5 pass the small-run caps (corpus <= 2, budget <= 3), and a value
# such as --corpus-size 10**9 would make a valid but huge run.
FUZZ_SKIP = {("corpus-size", "5"), ("budget", "5")}


def _outside_domain(flag: str, text: str) -> bool:
    spec = FLAGS[flag]
    key = spec.get("dest", flag.replace("-", "_"))
    value = spec["type"](text)
    if key in cli.FREE_KEYS:
        return False
    if "choices" in spec:
        return value not in spec["choices"]
    test, _ = cli.DOMAINS.get(key, (np.isfinite, None))
    return value != value or not test(value)


@pytest.mark.parametrize("command", list(FUZZ_RUNS))
def test_numeric_flag_matrix_exits_0_1_or_2(capsys, command):
    # every numeric flag of the command against edge values, in process
    calls = 0
    for flag in COMMAND_FLAGS[command].split():
        kind = FLAGS[flag].get("type")
        for text in {float: FUZZ_FLOATS, int: FUZZ_INTS}.get(kind, ()):
            if (flag, text) in FUZZ_SKIP:
                continue
            argv = (command, "--d", "3", "--n", "16", *FUZZ_RUNS[command],
                    f"--{flag}={text}")
            code, out, err = run(capsys, *argv)
            calls += 1
            assert code in (0, 1, 2), argv
            assert "internal error" not in err, argv
            if _outside_domain(flag, text):
                assert (code, out) == (2, ""), argv
                key = flag.replace("-", " ")
                named = (f"argument --{flag}:", f"config error: {key} must")
                assert any(words in err for words in named), (argv, err)
    assert calls >= 40


# Edge values of the flags the two file-reading commands take, and the files
# they read: cell and lattice fields, real and complex, at d = 3.
FILE_FLOATS = {
    "s": ("0", "0.5", "-1", "1e300"),
    "q": ("1", "2", "inf", "0.5", "1e300"),
    "r": ("1", "inf", "0.5"),
    "coverage": ("0", "0.5", "1", "-1", "inf"),
}
FIELD_FILES = [("cell", False, 16), ("cell", True, 32), ("lattice", False, 32),
               ("lattice", True, 16)]


@pytest.fixture(scope="module")
def field_files(tmp_path_factory):
    paths = []
    for centering, complex_, n in FIELD_FILES:
        grid = make_grid(3, n, 20.0)
        vals = random_band_limited_field(grid, n).values
        vals = vals + 0.5j * vals[::-1] if complex_ else vals
        path = tmp_path_factory.mktemp("files") / f"{centering}-{complex_}-{n}.hlf"
        write_field(path, make_field(grid, vals, centering))
        paths.append(str(path))
    return paths


def test_field_file_matrix_exits_0_1_or_2(capsys, field_files):
    # lp, and norm of every kind at every (s, q) pair, on each file, in
    # process; the l^r kinds also take each r at s = 0.5, q = 2.  Weighted
    # norms of lattice fields at q = inf with s > 0 exited 2 on a non-JSON
    # inf, with numpy's divide-by-zero warning on stderr; at q = 1e300 a
    # weight or symbol overflowed (exit 3 under this suite's warning filter)
    argvs = [("lp", "--field", path, "--coverage", c)
             for path in field_files for c in FILE_FLOATS["coverage"]]
    for path, kind in itertools.product(field_files, cli.NORM_KINDS):
        norm = ("norm", "--field", path, "--kind", kind)
        for s, q in itertools.product(FILE_FLOATS["s"], FILE_FLOATS["q"]):
            argvs.append((*norm, "--s", s, "--q", q))
        if kind in ("besov", "triebel-lizorkin"):
            argvs += [(*norm, "--s", "0.5", "--r", r) for r in FILE_FLOATS["r"]]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "internal error" not in err and "JSON compliant" not in err, argv
    assert len(argvs) >= 400


def test_weighted_norm_of_a_lattice_field_refuses_the_origin(capsys, field_files):
    # at q = inf this exited 2 on "Out of range float values are not JSON
    # compliant: inf", after numpy's divide-by-zero warning
    for path in field_files[2:]:  # the lattice fields
        for q in ("inf", "2"):
            argv = ("norm", "--field", path, "--kind", "weighted", "--s", "1", "--q", q)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.endswith(
                "error: a sample sits at |x| = 0; use a cell-centered grid for "
                "singular weights\n"
            )


def test_norm_beyond_the_float_range_is_refused(capsys, field_files):
    # |x|^-s overflowed the maximum's weight (h < 1, so samples sit at
    # |x| < 1) and |2 pi xi|^(2 s) the Sobolev symbol: exit 2 on a non-JSON nan
    # or inf, after numpy's warnings.  At finite q, s q >= d is refused first.
    for path, kind, s, q in ((field_files[1], "weighted", "1e300", "inf"),
                             (field_files[0], "sobolev", "1e300", "2")):
        argv = ("norm", "--field", path, "--kind", kind, "--s", s, "--q", q)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: the {kind} norm leaves the float range at s = {float(s):g}, "
            f"q = {float(q):g}\n"
        )


def test_norm_refuses_a_non_integrable_weight(capsys, field_files):
    # |x|^(-s q) has no finite integral at the origin when s q >= d: at
    # d = 3, s = 1.5, q = 2 a Gaussian's weighted norm printed 3.79, 6.09 and
    # 7.22 at n = 16, 32 and 64
    norm = ("norm", "--field", field_files[0], "--kind", "weighted")
    for s, q, e in (("1.5", "2", "-3"), ("1", "3", "-3"), ("0.5", "1e300", "-5e+299")):
        code, out, err = run(capsys, *norm, "--s", s, "--q", q)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: the weight |x|^{e} is not integrable at the origin in d = 3: "
            "need s q < d\n"
        )
