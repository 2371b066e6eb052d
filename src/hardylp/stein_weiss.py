"""Riesz potentials, the two-weight inequality, and the homogeneous-kernel
operator machinery used in its duality proof.

The convolution with |x|^-lam is evaluated spectrally (it is a constant
multiple of a negative-order fractional Laplacian); a radial multiplier, so
on an even field it is one DCT pair of the octant (SampledField.octant), and
both weighted norms of stein_weiss_check are octant sums.  The inner-ball
operator is radial and is summed exactly over the grid's radial classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import QUADRATURE_TOL, CheckReport, check_report, within_bound
from .spectral_core import (
    GridSpec,
    SampledField,
    _radial_classes,
    fractional_laplacian,
    lq_norm,
    power_weighted_lq_norm,
)

__all__ = [
    "SteinWeissParams",
    "RadialProfile",
    "riesz_constant",
    "riesz_potential",
    "stein_weiss_check",
    "inner_ball_potential",
    "geometric_radii",
    "inner_ball_potential_radial",
    "radial_kernel_integral",
    "sphere_area",
    "inner_ball_bound_check",
]

# Samples of the geometric radius grid of the one-ray reductions.
RADIAL_POINTS = 256


@dataclass(frozen=True)
class SteinWeissParams:
    """Parameter set (lam, p, q, alpha, beta, d) for the two-weight bound
    on the Riesz potential."""

    lam: float
    p: float
    q: float
    alpha: float
    beta: float
    d: int

    def violations(self) -> list[str]:
        out = []
        d = self.d
        if not (0.0 < self.lam < d):
            out.append(f"kernel order must satisfy 0 < lam < d; got lam = {self.lam}")
        # d, p and q before the rules that divide by them
        if not d >= 1:
            out.append(f"need d >= 1; got d = {d}")
        if not (1.0 < self.p < np.inf):
            out.append(f"need 1 < p < inf; got p = {self.p}")
        if not (self.p <= self.q < np.inf):
            out.append(f"need p <= q < inf; got p = {self.p}, q = {self.q}")
        if not (d >= 1 and 1.0 < self.p <= self.q < np.inf):
            return out
        p_conj = self.p / (self.p - 1.0)
        if not (self.alpha < d / p_conj):
            out.append(f"need alpha < d/p' = {d / p_conj:g}; got alpha = {self.alpha}")
        if not (self.beta < d / self.q):
            out.append(f"need beta < d/q = {d / self.q:g}; got beta = {self.beta}")
        if not (self.alpha + self.beta >= 0.0):
            out.append(
                f"need alpha + beta >= 0; got {self.alpha + self.beta:g}"
            )
        scaling = 1.0 / self.p + (self.lam + self.alpha + self.beta) / d - 1.0
        if abs(1.0 / self.q - scaling) > 1e-9:
            out.append(
                "scaling relation 1/q = 1/p + (lam + alpha + beta)/d - 1 "
                f"violated: 1/q = {1.0 / self.q:g} vs {scaling:g}"
            )
        return out

    def require(self) -> None:
        bad = self.violations()
        if bad:
            raise ValueError("; ".join(bad))


@dataclass(frozen=True)
class RadialProfile:
    """Samples g(r) along a ray, on a strictly increasing positive radius grid."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise ValueError("profile needs at least two radii")
        if radii[0] <= 0 or np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing and positive")
        if values.shape != radii.shape:
            raise ValueError("values must match radii")
        radii.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)


def riesz_constant(d: int, lam: float) -> float:
    """c = pi^(d/2) Gamma((d - lam)/2) / Gamma(lam/2), the factor relating
    convolution with |x|^-lam to |D|^-(d - lam)."""
    return math.pi ** (d / 2.0) * math.gamma((d - lam) / 2.0) / math.gamma(lam / 2.0)


def riesz_potential(f: SampledField, lam: float) -> SampledField:
    """Convolution with |x|^-lam, computed spectrally as
    c * |D|^-(d - lam) f on mean-zero fields."""
    d = f.grid.d
    if not (0.0 < lam < d):
        raise ValueError(f"kernel order must satisfy 0 < lam < d = {d}, got {lam}")
    return fractional_laplacian(f, -(d - lam), riesz_constant(d, lam))


def stein_weiss_check(f: SampledField, params: SteinWeissParams) -> CheckReport:
    """Quotient of |||T f| |x|^-beta||_q against |||f| |x|^alpha||_p.

    The bound constant is not known in closed form here; the quotient is
    recorded.  Inadmissible parameter sets are rejected with the violated
    condition named.
    """
    params.require()
    if f.grid.d != params.d:
        raise ValueError(f"field dimension {f.grid.d} != parameter d = {params.d}")
    pot = riesz_potential(f, params.lam)
    lhs = power_weighted_lq_norm(pot, -params.beta, params.q)
    rhs = power_weighted_lq_norm(f, params.alpha, params.p)
    return check_report(
        "stein-weiss", f.grid, params.beta, params.q, lhs, rhs,
        extra={"lam": params.lam, "p": params.p, "alpha": params.alpha},
    )


def inner_ball_potential(g: SampledField, s: float) -> SampledField:
    """U g(x) = |x|^(s-d) * int_{|y| <= |x|/2} |g(y)| |y|^-s dy, summed
    exactly over radial classes; depends on g only through |g|.

    On the cell-centered grid k = |2x/h|^2 is a sum of d odd squares, so
    k = d (mod 8) and the support |y| <= |x|/2 is exactly 4 k_y <= k_x, with
    no pair on its edge: U g is one prefix sum over k, read at k_x // 4.
    """
    grid = g.grid
    d = grid.d
    if not (0.0 < s < d):
        raise ValueError(f"weight order must satisfy 0 < s < d = {d}, got {s}")
    if g.centering != "cell":
        raise ValueError("the inner-ball operator needs cell-centered samples")
    k = _radial_classes(grid).ravel()
    radii = np.sqrt(k) * (grid.h / 2.0)
    mass = np.cumsum(np.bincount(k, weights=np.abs(g.values).ravel() * radii ** (-s)))
    out = mass[k // 4] * grid.h**d * radii ** (s - d)
    return g.with_values(out.reshape(grid.shape))


def geometric_radii(grid: GridSpec) -> np.ndarray:
    """Geometric radius grid of RADIAL_POINTS points from h/2 to L."""
    return np.geomspace(grid.h / 2.0, grid.L, RADIAL_POINTS)


def inner_ball_potential_radial(
    profile: RadialProfile,
    s: float,
    d: int,
    form: str = "direct",
) -> RadialProfile:
    """One-ray reduction of the inner-ball operator on a radial profile.

    form="direct" integrates r^(d-1) K(R, r) |g(r)| over r in (0, R/2],
    with the degree -d kernel K(R, r) = r^-s R^(s-d);
    form="substituted" uses the homogeneity substitution r = t R and
    integrates t^(d-1-s) |g(t R)| over t in (0, 1/2].  The two agree up to
    quadrature error.  Values of |g| below the first profile radius are
    extended by the innermost sample.
    """
    if not (0.0 < s < d):
        raise ValueError(f"weight order must satisfy 0 < s < d = {d}, got {s}")
    radii = profile.radii
    mag = np.abs(profile.values)
    out = np.zeros(radii.size)
    if form == "direct":
        for i, big_r in enumerate(radii):
            top = big_r / 2.0
            rs = radii[radii < top]
            rs = np.append(rs, top)
            gi = np.interp(rs, radii, mag, left=mag[0], right=0.0)
            integrand = rs ** (d - 1.0 - s) * gi
            # the missing (0, rs[0]) piece: integrand ~ r^(d-1-s), power > -1
            head = integrand[0] * rs[0] / (d - s)
            out[i] = (head + np.trapezoid(integrand, rs)) * big_r ** (s - d)
    elif form == "substituted":
        t = np.geomspace(1e-4, 0.5, radii.size)
        for i, big_r in enumerate(radii):
            gi = np.interp(t * big_r, radii, mag, left=mag[0], right=0.0)
            integrand = t ** (d - 1.0 - s) * gi
            head = integrand[0] * t[0] / (d - s)
            out[i] = head + np.trapezoid(integrand, t)
    else:
        raise ValueError(f"unknown reduction form {form!r}")
    return RadialProfile(radii=radii, values=out)


def radial_kernel_integral(d: int, q: float, s: float) -> float:
    """int_0^1 t^(d - d/q - 1 - s) dt = 1 / (d - d/q - s); diverges unless
    s < d - d/q (the conjugate-exponent admissibility window)."""
    gap = d - d / q - s
    if gap <= 0:
        raise ValueError(
            f"radial kernel integral diverges: need s < d - d/q = {d - d / q:g}"
        )
    return 1.0 / gap


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def inner_ball_bound_check(g: SampledField, s: float, q: float) -> CheckReport:
    """Check int |U g|^q <= J^q |S^(d-1)|^q int |g|^q, within QUADRATURE_TOL,
    with the closed-form one-dimensional kernel integral J and the exact
    sphere area."""
    d = g.grid.d
    j_const = radial_kernel_integral(d, q, s)
    area = sphere_area(d)
    pot = inner_ball_potential(g, s)
    lhs = lq_norm(pot, q) ** q
    base = lq_norm(g, q) ** q
    bound = j_const**q * area**q
    return check_report(
        "inner-ball-bound", g.grid, s, q, lhs, bound * base, bound_constant=bound,
        tolerance=QUADRATURE_TOL,
        passed=bool(within_bound(lhs, base, bound, QUADRATURE_TOL)),
        extra={"kernel_integral": j_const, "sphere_area": area},
    )
