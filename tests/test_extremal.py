"""Quasi-extremal trials and the derivative-free constant estimation."""

import numpy as np
import pytest

import hardylp.extremal as extremal
from conftest import DirectSearch, check, full_grid_quotient, peak_field_arrays
from hardylp.corpus import truncated_power_field
from hardylp.extremal import (
    ESTIMATE_IDENTITIES,
    _trial_quotient,
    estimate_constant,
    evaluate_trial,
)
from hardylp.spectral_core import boundary_decay, make_grid

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
    from hardylp.extremal import _trial_field

    est = estimate_constant("fractional", 3, 1.0, 2.0, budget=100, n=64)
    grid = make_grid(3, 64, 20.0)
    witness = _trial_field(grid, 2.0, est.seed, est.params)
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
    # so the run builds its |2 pi xi|^s symbol and weight table too.  The
    # L = 18 grids are cold in this process; the n = 32 run warms what is
    # not per grid.  A symbol built beside its radius and a boolean mask
    # gave 4.13 field arrays here, and the full-grid trial 3.51; the octant
    # path holds octant arrays of 1/8 field array each, 0.70 at the peak
    params = {"family": "truncated-power", "exponent_fraction": 0.75,
              "inner_cells": 2.2, "outer_fraction": 0.08}
    evaluate_trial("fractional", 3, 1.0, 2.0, params, 32, 18.0)
    peak = peak_field_arrays(
        lambda: evaluate_trial("fractional", 3, 1.0, 2.0, params, 64, 18.0), 8 * 64**3
    )
    assert peak <= 0.75


# --- radial trials on the octant ---------------------------------------------

RADIAL_TRIALS = (
    {"family": "gaussian", "width_fraction": 0.07},
    {"family": "truncated-power", "exponent_fraction": 0.75, "inner_cells": 2.2,
     "outer_fraction": 0.08},
)


@pytest.mark.parametrize(
    "d, sizes",
    [(1, (8, 16, 32, 64, 128)), (2, (8, 16, 32, 64, 128)), (3, (8, 16, 32, 64, 128)),
     (4, (8, 16, 32))],
)
def test_octant_quotient_matches_the_full_grid(d, sizes):
    for n in sizes:
        grid = make_grid(d, n, 20.0)
        for s in (0.0, 0.3, 0.5, 1.0, 0.95 * d / 2):
            if s >= d / 2:
                continue
            for params in RADIAL_TRIALS:
                got = _trial_quotient("fractional", grid, None, s, 2.0, 7, params)
                want = full_grid_quotient("fractional", grid, None, s, 2.0, 7, params)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, s, params)


def test_octant_quotient_keeps_the_full_paths_rules(fft_calls):
    grid = make_grid(3, 16, 20.0)
    # a Gaussian too narrow for the grid: both norms 0, the quotient 0
    narrow = {"family": "gaussian", "width_fraction": 1e-4}
    assert _trial_quotient("fractional", grid, None, 1.0, 2.0, 7, narrow) == 0.0
    # the octant path takes no d-D transform, only an rfft along each axis
    assert dict(fft_calls) == {"rfft": 3}
    assert full_grid_quotient("fractional", grid, None, 1.0, 2.0, 7, narrow) == 0.0
    with pytest.raises(ValueError, match="need 0 <= s < d/q"):
        _trial_quotient("fractional", grid, None, 1.5, 2.0, 7, RADIAL_TRIALS[0])
    coarse = {**RADIAL_TRIALS[1], "inner_cells": 1.5}
    with pytest.raises(ValueError, match="inner cutoff"):
        _trial_quotient("fractional", grid, None, 1.0, 2.0, 7, coarse)
