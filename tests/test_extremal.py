"""Quasi-extremal trials and the derivative-free constant estimation."""

import numpy as np
import pytest

import hardylp.extremal as extremal
import hardylp.cli as cli
from conftest import (
    DirectSearch,
    RADIAL_TRIALS,
    check,
    peak_field_arrays,
    radial_family_fields,
    trial_field,
)
from hardylp.corpus import truncated_power_field
from hardylp.extremal import (
    ESTIMATE_IDENTITIES,
    _partition_for,
    _trial_quotient,
    estimate_constant,
    evaluate_trial,
)
from hardylp.hardy import FieldValues
from hardylp.littlewood_paley import build_partition
from hardylp.spectral_core import SampledField, boundary_decay, make_grid
from hardylp.stein_weiss import SteinWeissParams

GAUSS_QUOTIENT = 1.1547005383792517  # 2/sqrt(3), radial quadrature oracle


@pytest.fixture(scope="module")
def grid3f():
    return make_grid(3, 64, 20.0)


# --- quasi-extremal family -------------------------------------------------
# The truncated power |x|^-(d/q - s - eps), smoothly cut at [4h, L/4],
# approaches the virtual extremizer |x|^-(d/q - s) as eps drops.


def quasi_extremal(grid, s, q, eps):
    return truncated_power_field(grid, grid.d / q - s - eps, 4.0 * grid.h, grid.L / 4.0)


def test_quasi_extremal_grid_too_coarse():
    g = make_grid(3, 32, 20.0)  # 8h = L/4: cutoffs collapse
    with pytest.raises(ValueError, match="collapse"):
        quasi_extremal(g, 1.0, 2.0, 0.2)


def test_quasi_extremal_large_epsilon_small_quotient(grid3f):
    # a -> 0: nearly a smooth bump, quotient well below the near-extremal one
    bump = quasi_extremal(grid3f, 1.0, 2.0, 0.45)
    near = quasi_extremal(grid3f, 1.0, 2.0, 0.05)
    q_bump = check("fractional", bump, 1.0, 2.0).quotient
    q_near = check("fractional", near, 1.0, 2.0).quotient
    assert q_bump < q_near


def test_quasi_extremal_quotient_increases_as_epsilon_drops(grid3f):
    values = []
    for eps in (0.4, 0.2, 0.1):
        f = quasi_extremal(grid3f, 1.0, 2.0, eps)
        values.append(check("fractional", f, 1.0, 2.0).quotient)
    assert values[0] < values[1] < values[2]


def test_quasi_extremal_amplitude_invariance(grid3f):
    f = quasi_extremal(grid3f, 1.0, 2.0, 0.2)
    base = check("fractional", f, 1.0, 2.0).quotient
    scaled = check("fractional", f.with_values(11.0 * f.values), 1.0, 2.0)
    assert scaled.quotient == pytest.approx(base, rel=1e-12)


# --- estimation ---------------------------------------------------------------


def test_estimate_budget_one_is_default_gaussian(grid3f):
    est = estimate_constant("fractional", 3, 1.0, 2.0, budget=1, n=64)
    assert est.evaluations == 1
    assert est.params["family"] == "gaussian"
    assert est.best == pytest.approx(GAUSS_QUOTIENT, rel=0.02)


def test_estimate_monotone_in_budget():
    prev = 0.0
    for budget in (1, 10, 30, 60):
        est = estimate_constant("fractional", 3, 1.0, 2.0, budget=budget, n=32)
        assert est.best >= prev
        prev = est.best


def test_estimate_reports_trend(grid3f):
    est = estimate_constant("fractional", 3, 1.0, 2.0, budget=8, n=32)
    assert [t["n"] for t in est.trend] == [32, 64]
    assert all(np.isfinite(t["best"]) for t in est.trend)


def test_estimate_replayable(grid3f):
    est = estimate_constant("fractional", 3, 1.0, 2.0, budget=25, n=32)
    replay = evaluate_trial(
        "fractional", 3, 1.0, 2.0, est.params, est.n, est.L, est.seed
    )
    assert replay == pytest.approx(est.best, rel=1e-12)


def test_estimate_witness_respects_decay_rule(grid3f):
    est = estimate_constant("fractional", 3, 1.0, 2.0, budget=100, n=64)
    grid = make_grid(3, 64, 20.0)
    witness = trial_field(grid, 2.0, est.seed, est.params)
    if est.params["family"] != "random-band-limited":
        assert boundary_decay(witness) < 1e-7


def test_estimate_rejects_bad_identity():
    with pytest.raises(ValueError):
        estimate_constant("classical", 3, 1.0, 2.0, budget=4)
    with pytest.raises(ValueError):
        estimate_constant("refined", 3, 0.5, 2.0, budget=4)  # refined needs q > 2


def test_estimate_other_identities_run():
    for identity, q in (("besov", 2.0), ("refined", 4.0)):
        est = estimate_constant(identity, 2, 0.3, q, budget=5, n=64)
        assert identity in ESTIMATE_IDENTITIES
        assert est.best > 0


# --- the search's table of quotients ----------------------------------------


@pytest.mark.parametrize(
    "identity, s, q, n",
    [
        ("fractional", 1.0, 2.0, 32),
        ("besov", 0.5, 3.0, 32),
        ("refined", 0.5, 3.0, 32),
        # n = 64 resolves the truncated-power taper, so that family runs too
        ("fractional", 1.0, 2.0, 64),
    ],
)
def test_search_table_matches_direct_search(monkeypatch, identity, s, q, n):
    def estimates():
        return [
            estimate_constant(identity, 3, s, q, budget=budget, n=n)
            for budget in (1, 7, 20, 38, 60, 100)
        ]

    tabled = estimates()
    monkeypatch.setattr(extremal, "_Search", DirectSearch)
    direct = estimates()
    for a, b in zip(tabled, direct):
        # repr tells apart any two floats that differ in a bit
        assert repr(a.to_dict()) == repr(b.to_dict())
        assert a.evaluations == b.evaluations


def test_search_table_is_per_search(monkeypatch, call_log):
    """A band trial's quotient depends on the seed, not on the params alone,
    so one search's table must not answer another's points."""
    trials = call_log(extremal, "_trial_quotient")
    estimate_constant("fractional", 3, 1.0, 2.0, budget=38, n=32, seed=1)
    start = len(trials)
    after = estimate_constant("fractional", 3, 1.0, 2.0, budget=38, n=32, seed=2)
    # 7 distinct Gaussian and 7 distinct band points, and the trend's trial
    assert len(trials) - start == 7 + 7 + 1
    assert all(args[5] == 2 for args in trials[start:])
    monkeypatch.setattr(extremal, "_Search", DirectSearch)
    alone = estimate_constant("fractional", 3, 1.0, 2.0, budget=38, n=32, seed=2)
    assert repr(after.to_dict()) == repr(alone.to_dict())
    assert after.evaluations == alone.evaluations == 38


def test_cold_trend_trial_peak_memory():
    # the trend step evaluates one trial on a grid the search has not seen,
    # so the run builds its |2 pi xi|^s symbol and weight table too.  Each
    # case's grids are cold in this process; its n = 32 run warms what is
    # not per grid.  At q = 2 a symbol built beside its radius and a boolean
    # mask gave 4.13 field arrays here, and the full-grid trial 3.51; at
    # q = 3 the full-grid trial gave 3.64.  The octant path holds octant
    # arrays of 1/8 field array each: 0.57 and 0.76 at the peak
    params = {"family": "truncated-power", "exponent_fraction": 0.75,
              "inner_cells": 2.2, "outer_fraction": 0.08}
    for s, q, L, bound in ((1.0, 2.0, 18.0, 0.75), (0.5, 3.0, 19.0, 1.0)):
        evaluate_trial("fractional", 3, s, q, params, 32, L)
        peak = peak_field_arrays(
            lambda: evaluate_trial("fractional", 3, s, q, params, 64, L), 8 * 64**3
        )
        assert peak <= bound, (s, q, peak)


# --- radial trials on the octant ---------------------------------------------

# every estimated identity, at the exponents q its radial trials take
OCTANT_CASES = (("fractional", 2.0), ("fractional", 3.0), ("besov", 2.0), ("besov", 3.0),
                ("refined", 3.0))


@pytest.mark.parametrize("identity, q", OCTANT_CASES)
def test_radial_trial_builds_no_field(identity, q, monkeypatch, reflections):
    # a radial trial is a field built from its octant, and so is its |D|^s f:
    # no field is built from samples, and none reflects its octant onto the grid
    grid = make_grid(3, 32, 20.0)
    partition = _partition_for(identity, grid)
    built, post_init = [], SampledField.__post_init__

    def counted(f):
        built.append(f.grid)
        post_init(f)

    monkeypatch.setattr(SampledField, "__post_init__", counted)
    for params in RADIAL_TRIALS:
        assert _trial_quotient(identity, grid, partition, 0.5, q, 7, params) > 0
    assert built == [] and reflections == []


@pytest.mark.parametrize("d", [3, 4])
def test_verify_checks_of_radial_fields_reflect_no_octant(d, monkeypatch, reflections):
    # verify's checks of a radial corpus field build |D|^s f, 3.5 f, f - mean,
    # the Riesz potential and the gradient magnitude from octants, and none of
    # them is reflected onto the grid; in d = 4 the inner-ball bound reads the
    # corpus field's own samples.  So does stein-weiss-check's f - mean
    grid = make_grid(d, 32, 20.0)
    part = build_partition(grid)
    s, q = 0.5, 3.0
    plan = [entry for _, entry, applies in cli.VERIFY_CHECKS if applies(d, s, q)]
    powers = [r for entry in plan for r in entry.powers(q)]
    params = SteinWeissParams(lam=d - s, p=q, q=q, alpha=0.0, beta=s, d=d)
    built, from_octant = [], SampledField.from_octant.__func__

    def counted(cls, grid, octant):
        built.append(octant.shape)
        return from_octant(cls, grid, octant)

    monkeypatch.setattr(SampledField, "from_octant", classmethod(counted))
    for f in radial_family_fields(grid, s, q):
        values = FieldValues(f, s, q, part, powers, True)
        for entry in plan:
            entry.run(values, 0.03)
        assert cli._mean_free_stein_weiss(values, params).quotient > 0
    # per field |D|^s f, 3.5 f and its |D|^s, f - mean twice, two Riesz
    # potentials, and in d = 4 the gradient magnitude
    assert len(built) == 2 * (7 + (d == 4))
    assert set(built) == {(16,) * d} and reflections == []


def test_octant_quotient_keeps_the_full_paths_rules(fft_calls):
    grid = make_grid(3, 16, 20.0)
    # a Gaussian too narrow for the grid: both norms 0, the quotient 0
    narrow = {"family": "gaussian", "width_fraction": 1e-4}
    assert _trial_quotient("fractional", grid, None, 1.0, 2.0, 7, narrow) == 0.0
    # the octant path takes no d-D transform, only an rfft along each axis
    assert dict(fft_calls) == {"rfft": 3}
    full = check("fractional", trial_field(grid, 2.0, 7, narrow), 1.0, 2.0, full=True)
    assert (full.quotient or 0.0) == 0.0
    with pytest.raises(ValueError, match="need 0 <= s < d/q"):
        _trial_quotient("fractional", grid, None, 1.5, 2.0, 7, RADIAL_TRIALS[0])
    coarse = {**RADIAL_TRIALS[1], "inner_cells": 1.5}
    with pytest.raises(ValueError, match="inner cutoff"):
        _trial_quotient("fractional", grid, None, 1.0, 2.0, 7, coarse)
