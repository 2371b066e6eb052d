"""Empirical estimation of the best Hardy-quotient constants.

The sharp constants are not attained; this module maximizes the quotients
over parametric trial families (Gaussians, truncated power laws approaching
the virtual extremizer |x|^-(d/q - s), and random band-limited fields) with
a derivative-free golden-section coordinate search, and always reports the
value again on a once-refined grid so discretization bias is visible.  A
radial trial's fractional quotient at q = 2 is taken from its octant
alone (spectral_core._even_norm and _even_parseval), with no field built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import _gaussian_profile, random_band_limited_field
from .hardy import CHECKS, FieldValues, _require_fractional
from .littlewood_paley import build_partition
from .report import QUADRATURE_TOL
from .spectral_core import GridSpec, _even_norm, _even_parseval, _radial_values
from .spectral_core import _refined_weight, make_field, make_grid

__all__ = [
    "ConstantEstimate",
    "evaluate_trial",
    "estimate_constant",
    "ESTIMATE_IDENTITIES",
]

ESTIMATE_IDENTITIES = ("fractional", "besov", "refined")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GAUSSIAN_WIDTH = 0.0775  # fraction of L; decays below 1e-8 at faces

# Coordinate sweeps per family, and interval shrinks per golden-section search.
SWEEPS = 3
GOLDEN_ITERATIONS = 4

# The trial families in search order: each family's first trial, and the
# (coordinate, lo, hi) golden-section searches of one of its sweeps.
FAMILIES = (
    ({"family": "gaussian", "width_fraction": DEFAULT_GAUSSIAN_WIDTH},
     (("width_fraction", 0.05, 0.0825),)),
    # outer tapers stay inside the boundary-decay rule: a wider taper wraps
    # around the box, feeds the field's mean into the weighted side, and
    # inflates the quotient with a torus artifact
    ({"family": "truncated-power", "exponent_fraction": 0.5, "inner_cells": 3.0,
      "outer_fraction": DEFAULT_GAUSSIAN_WIDTH},
     (("exponent_fraction", 0.1, 0.95), ("inner_cells", 2.0, 6.0),
      ("outer_fraction", 0.05, 0.0825))),
    ({"family": "random-band-limited", "envelope": 1.0}, (("envelope", 0.4, 2.5),)),
)


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


class _BudgetExhausted(Exception):
    pass


class _Search:
    """Deterministic evaluation sequence with a hard budget; keeps the
    running best so truncating the sequence can only lower the estimate.

    A point met again in the sequence is read from the search's own table
    of quotients, not evaluated again; it still counts against the budget,
    so the budget is the length of the sequence.  The table belongs to one
    search, because a quotient depends on its grid and seed as well."""

    def __init__(self, objective, budget: int):
        self.objective = objective
        self.budget = budget
        self.count = 0
        self.best = -np.inf
        self.best_params = None
        self.quotients = {}

    def evaluate(self, params: dict) -> float:
        if self.count >= self.budget:
            raise _BudgetExhausted
        self.count += 1
        key = tuple(sorted(params.items()))
        if key not in self.quotients:
            self.quotients[key] = self.objective(params)
        value = self.quotients[key]
        if value > self.best:
            self.best = value
            self.best_params = dict(params)
        return value

    def golden_section(self, params: dict, coord: str, lo: float, hi: float) -> dict:
        """Golden-section maximization over one coordinate; returns params
        moved to the better of the surviving interior points."""
        x1 = hi - GOLDEN * (hi - lo)
        x2 = lo + GOLDEN * (hi - lo)
        f1 = self.evaluate({**params, coord: x1})
        f2 = self.evaluate({**params, coord: x2})
        for _ in range(GOLDEN_ITERATIONS):
            if f1 >= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - GOLDEN * (hi - lo)
                f1 = self.evaluate({**params, coord: x1})
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + GOLDEN * (hi - lo)
                f2 = self.evaluate({**params, coord: x2})
        return {**params, coord: (x1 if f1 >= f2 else x2)}


def _radial_profile(grid: GridSpec, q: float, params: dict):
    """The profile of a radial trial, or None for a band-limited one."""
    kind = params["family"]
    if kind == "gaussian":
        return _gaussian_profile(params["width_fraction"] * grid.L)
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

        return profile
    if kind == "random-band-limited":
        return None
    raise ValueError(f"unknown trial family {kind!r}")


def _trial_field(grid: GridSpec, q: float, seed: int, params: dict):
    profile = _radial_profile(grid, q, params)
    if profile is None:
        return random_band_limited_field(grid, seed, envelope=params["envelope"])
    return make_field(grid, _radial_values(grid, profile))


def _partition_for(identity: str, grid: GridSpec):
    """The dyadic partition an estimated identity needs, or None."""
    if identity not in ESTIMATE_IDENTITIES:
        raise ValueError(
            f"identity must be one of {ESTIMATE_IDENTITIES}, got {identity!r}"
        )
    return build_partition(grid) if CHECKS[identity].levels else None


def _trial_quotient(identity, grid, partition, s, q, seed, params) -> float:
    profile = _radial_profile(grid, q, params)
    if identity == "fractional" and q == 2 and profile is not None:
        # a radial trial's two norms from its octant, with no field built;
        # the quotient and its rhs > 0 rule are those of the full path
        _require_fractional(grid.d, s, q)
        g = _radial_values(grid, profile, octant=True)
        weight = _refined_weight(grid, "cell", -2.0 * s, True) if s else None
        weighted = _even_norm(grid, g, 2.0, weight)
        sobolev = _even_parseval(grid, g, s) if s else weighted  # s = 0: mean included
        return weighted / sobolev if sobolev > 0 else 0.0
    f = _trial_field(grid, q, seed, params)
    check = CHECKS[identity]
    values = FieldValues(f, s, q, partition, check.powers(q), check.shells)
    rep = check.run(values, QUADRATURE_TOL)
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
) -> ConstantEstimate:
    """Coordinate-search maximization of a Hardy quotient over trial families.

    Each family of FAMILIES in turn, the first always the default Gaussian,
    takes its first trial and then SWEEPS sweeps of its golden-section
    searches; the budget caps the length of that evaluation sequence, in which
    a point met again is read from the search's table instead of being
    evaluated again.  The reported best is the running maximum, so it is
    nondecreasing in the budget.  The trend field re-evaluates the
    maximizing trial on grids n and 2n.
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
        for trial, searches in FAMILIES:
            if trial["family"] == "truncated-power" and 0.05 * grid.L < 3.0 * grid.h:
                continue  # the outer taper must be resolved
            search.evaluate(trial)
            for _ in range(SWEEPS):
                for coord, lo, hi in searches:
                    trial = search.golden_section(trial, coord, lo, hi)
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
