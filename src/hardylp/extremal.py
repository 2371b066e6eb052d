"""Empirical estimation of the best Hardy-quotient constants.

The sharp constants are not attained; this module maximizes the quotients
over parametric trial families (Gaussians, truncated power laws approaching
the virtual extremizer |x|^-(d/q - s), and random band-limited fields) with
a derivative-free golden-section coordinate search, and always reports the
value again on a once-refined grid so discretization bias is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import gaussian_field, random_band_limited_field, truncated_power_field
from .hardy import IDENTITIES
from .littlewood_paley import build_partition
from .report import QUADRATURE_TOL
from .spectral_core import GridSpec, SampledField, _radial_values, make_field, make_grid

__all__ = [
    "ConstantEstimate",
    "quasi_extremal",
    "evaluate_trial",
    "estimate_constant",
    "ESTIMATE_IDENTITIES",
]

ESTIMATE_IDENTITIES = ("fractional", "besov", "refined")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GAUSSIAN_WIDTH = 0.0775  # fraction of L; decays below 1e-8 at faces


@dataclass
class ConstantEstimate:
    """Best quotient found for one inequality, with the maximizing trial and
    the grid-refinement trend (same trial at n and 2n)."""

    identity: str
    d: int
    s: float
    q: float
    n: int
    L: float
    seed: int
    budget: int
    evaluations: int
    best: float
    params: dict = field(default_factory=dict)
    trend: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "d": self.d,
            "s": self.s,
            "q": self.q,
            "best": self.best,
            "params": self.params,
            "trend": self.trend,
            "budget": self.budget,
        }


def quasi_extremal(grid: GridSpec, s: float, q: float, epsilon: float) -> SampledField:
    """Truncated power |x|^-(d/q - s - epsilon), smoothly cut at [4h, L/4].

    The exponent must land in (0, d/q); the weighted norm then stays finite
    as the cutoffs widen.  Raises when the grid cannot hold the cutoffs.
    """
    a = grid.d / q - s - epsilon
    if not (0.0 < a < grid.d / q):
        raise ValueError(
            f"exponent d/q - s - epsilon = {a:g} must lie in (0, {grid.d / q:g})"
        )
    return truncated_power_field(grid, a, 4.0 * grid.h, grid.L / 4.0)


class _BudgetExhausted(Exception):
    pass


class _Search:
    """Deterministic evaluation sequence with a hard budget; keeps the
    running best so truncating the sequence can only lower the estimate."""

    def __init__(self, objective, budget: int):
        self.objective = objective
        self.budget = budget
        self.count = 0
        self.best = -np.inf
        self.best_params = None

    def evaluate(self, params: dict) -> float:
        if self.count >= self.budget:
            raise _BudgetExhausted
        self.count += 1
        value = self.objective(params)
        if value > self.best:
            self.best = value
            self.best_params = dict(params)
        return value

    def golden_section(self, params: dict, coord: str, lo: float, hi: float,
                       iterations: int = 4) -> dict:
        """Golden-section maximization over one coordinate; returns params
        moved to the better of the surviving interior points."""
        x1 = hi - GOLDEN * (hi - lo)
        x2 = lo + GOLDEN * (hi - lo)
        f1 = self.evaluate({**params, coord: x1})
        f2 = self.evaluate({**params, coord: x2})
        for _ in range(iterations):
            if f1 >= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - GOLDEN * (hi - lo)
                f1 = self.evaluate({**params, coord: x1})
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + GOLDEN * (hi - lo)
                f2 = self.evaluate({**params, coord: x2})
        return {**params, coord: (x1 if f1 >= f2 else x2)}


def _trial_field(grid: GridSpec, s: float, q: float, seed: int, params: dict):
    kind = params["family"]
    if kind == "gaussian":
        return gaussian_field(grid, params["width_fraction"] * grid.L)
    if kind == "truncated-power":
        # capped power: plateau of radius inner_cells * h at the center, a
        # Gaussian outer taper at scale outer_fraction * L; the exponent is
        # a fraction of the admissibility bound d/q
        exponent = params["exponent_fraction"] * grid.d / q
        delta = params["inner_cells"] * grid.h
        taper = params["outer_fraction"] * grid.L
        if delta < 2.0 * grid.h:
            raise ValueError(f"inner cutoff must be >= 2h = {2 * grid.h:g}")

        def profile(r):
            r2 = r**2
            return (delta**2 + r2) ** (-exponent / 2.0) * np.exp(
                -r2 / (2.0 * taper**2)
            )

        return make_field(grid, _radial_values(grid, profile))
    if kind == "random-band-limited":
        return random_band_limited_field(grid, seed, envelope=params["envelope"])
    raise ValueError(f"unknown trial family {kind!r}")


def _partition_for(identity: str, grid: GridSpec):
    """The dyadic partition an estimated identity needs, or None."""
    if identity not in ESTIMATE_IDENTITIES:
        raise ValueError(
            f"identity must be one of {ESTIMATE_IDENTITIES}, got {identity!r}"
        )
    return build_partition(grid) if IDENTITIES[identity][0] else None


def _trial_quotient(identity, grid, partition, s, q, seed, params) -> float:
    f = _trial_field(grid, s, q, seed, params)
    rep = IDENTITIES[identity][1](f, s, q, partition, QUADRATURE_TOL)
    return rep.quotient if rep.quotient is not None else 0.0


def evaluate_trial(
    identity: str,
    d: int,
    s: float,
    q: float,
    params: dict,
    n: int,
    L: float,
    seed: int = 7,
) -> float:
    """Deterministic quotient of one trial; reproduces any logged estimate."""
    grid = make_grid(d, n, L)
    partition = _partition_for(identity, grid)
    return _trial_quotient(identity, grid, partition, s, q, seed, params)


def estimate_constant(
    identity: str,
    d: int,
    s: float,
    q: float,
    budget: int = 80,
    n: int = 64,
    L: float = 20.0,
    seed: int = 7,
    sweeps: int = 3,
) -> ConstantEstimate:
    """Coordinate-search maximization of a Hardy quotient over trial families.

    The first evaluation is always the default Gaussian, then golden-section
    sweeps run per coordinate for each family in a fixed order; the budget
    caps the number of quotient evaluations, and the reported best is the
    running maximum, so it is nondecreasing in the budget.  The trend field
    re-evaluates the maximizing trial on grids n and 2n.
    """
    if budget < 1:
        raise ValueError("budget must allow at least one evaluation")
    grid = make_grid(d, n, L)
    make_grid(d, 2 * n, L)  # the trend grid, refused before the search when too large
    partition = _partition_for(identity, grid)

    def objective(params: dict) -> float:
        return _trial_quotient(identity, grid, partition, s, q, seed, params)

    search = _Search(objective, budget)
    try:
        gauss = {"family": "gaussian", "width_fraction": DEFAULT_GAUSSIAN_WIDTH}
        search.evaluate(gauss)
        for _ in range(sweeps):
            gauss = search.golden_section(gauss, "width_fraction", 0.05, 0.0825)
        # outer tapers stay inside the boundary-decay rule: a wider taper
        # wraps around the box, feeds the field's mean into the weighted
        # side, and inflates the quotient with a torus artifact
        power = {
            "family": "truncated-power",
            "exponent_fraction": 0.5,
            "inner_cells": 3.0,
            "outer_fraction": DEFAULT_GAUSSIAN_WIDTH,
        }
        power_ok = 0.05 * grid.L >= 3.0 * grid.h  # taper must be resolved
        if power_ok:
            search.evaluate(power)
            for _ in range(sweeps):
                power = search.golden_section(
                    power, "exponent_fraction", 0.1, 0.95
                )
                power = search.golden_section(power, "inner_cells", 2.0, 6.0)
                power = search.golden_section(
                    power, "outer_fraction", 0.05, 0.0825
                )
        band = {"family": "random-band-limited", "envelope": 1.0}
        search.evaluate(band)
        for _ in range(sweeps):
            band = search.golden_section(band, "envelope", 0.4, 2.5)
    except _BudgetExhausted:
        pass

    best_params = search.best_params or {}
    best = float(search.best) if np.isfinite(search.best) else 0.0
    trend = [{"n": n, "best": best}]
    refined_value = evaluate_trial(identity, d, s, q, best_params, 2 * n, L, seed)
    trend.append({"n": 2 * n, "best": float(refined_value)})
    return ConstantEstimate(
        identity=identity,
        d=d,
        s=s,
        q=q,
        n=n,
        L=L,
        seed=seed,
        budget=budget,
        evaluations=search.count,
        best=best,
        params=best_params,
        trend=trend,
    )
