"""Riesz potentials, the two-weight inequality, and the homogeneous-kernel
operator machinery used in its duality proof.

The convolution with |x|^-lam is evaluated spectrally (it is a constant
multiple of a negative-order fractional Laplacian).  The inner-ball operator
is radial and is summed exactly over the grid's radial classes; the
near-origin term of the weighted-potential split is a genuine pair
quadrature and therefore restricted to coarse grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import CheckReport, QUADRATURE_TOL
from .spectral_core import (
    GridSpec,
    SampledField,
    _radial_classes,
    coordinate_mesh,
    fractional_laplacian,
    lq_norm,
    power_weighted_lq_norm,
    radius_mesh,
)

__all__ = [
    "SteinWeissParams",
    "RadialProfile",
    "riesz_constant",
    "riesz_potential",
    "stein_weiss_check",
    "split_weighted_potential",
    "homogeneous_kernel",
    "inner_ball_potential",
    "geometric_radii",
    "radial_average_profile",
    "inner_ball_potential_radial",
    "radial_kernel_integral",
    "sphere_area",
    "inner_ball_bound_check",
    "DIRECT_QUADRATURE_LIMITS",
]

# Pair quadratures cost O(n^(2d)); anything finer than this is refused.
DIRECT_QUADRATURE_LIMITS = {1: 1024, 2: 32, 3: 16}

_CHUNK = 256


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
        if not (1.0 < self.p < np.inf):
            out.append(f"need 1 < p < inf; got p = {self.p}")
        else:
            p_conj = self.p / (self.p - 1.0)
            if not (self.alpha < d / p_conj):
                out.append(
                    f"need alpha < d/p' = {d / p_conj:g}; got alpha = {self.alpha}"
                )
        if not (self.p <= self.q < np.inf):
            out.append(f"need p <= q < inf; got p = {self.p}, q = {self.q}")
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
    c = riesz_constant(d, lam)
    out = fractional_laplacian(f, -(d - lam))
    return out.with_values(out.values * c)


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
    quotient = lhs / rhs if rhs > 0 else None
    return CheckReport(
        identity="stein-weiss",
        d=params.d,
        n=f.grid.n,
        L=f.grid.L,
        s=params.beta,
        q=params.q,
        lhs=lhs,
        rhs=rhs,
        quotient=quotient,
        vacuous=(lhs == 0.0 and rhs == 0.0),
        extra={"lam": params.lam, "p": params.p, "alpha": params.alpha},
    )


def _require_coarse(grid: GridSpec, what: str) -> None:
    limit = DIRECT_QUADRATURE_LIMITS.get(grid.d)
    if limit is None or grid.n > limit:
        allowed = ", ".join(
            f"d={d}: n<={n}" for d, n in sorted(DIRECT_QUADRATURE_LIMITS.items())
        )
        raise ValueError(
            f"{what} is a direct pair quadrature and runs on coarse grids "
            f"only ({allowed}); got d = {grid.d}, n = {grid.n}"
        )


def _flat_points(grid: GridSpec, centering: str) -> tuple[np.ndarray, np.ndarray]:
    mesh = coordinate_mesh(grid, centering)
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    radii = np.sqrt((pts**2).sum(axis=1))
    if (radii == 0.0).any():
        raise ValueError(
            "pair quadrature of the singular weight needs cell-centered "
            "grids (a sample sits at the origin)"
        )
    return pts, radii


def homogeneous_kernel(x_norm: float, y_norm: float, s: float, d: int) -> float:
    """Degree -d homogeneous kernel 1 / (|y|^s |x|^(d-s)) on |y| <= |x|/2,
    zero elsewhere."""
    if x_norm <= 0:
        raise ValueError("kernel needs x away from the origin")
    if y_norm < 0:
        raise ValueError("radii are nonnegative")
    if y_norm > x_norm / 2.0:
        return 0.0
    if y_norm == 0.0:
        return math.inf if s > 0 else x_norm ** (s - d)
    return 1.0 / (y_norm**s * x_norm ** (d - s))


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


def split_weighted_potential(
    g: SampledField, s: float
) -> tuple[SampledField, SampledField]:
    """Split the weighted negative-order potential into its two controlling
    terms.

    outer(x) = |x|^-s * int |g(y)| |x-y|^(s-d) dy      (spectral)
    inner(x) = int_{|y| <= |x|/2} |g(y)| |y|^-s |x-y|^(s-d) dy   (direct)

    The full value |D|^-s (g / |x|^s) is dominated pointwise by a constant
    multiple of outer + inner.  The spectral route needs a mean-zero
    integrand, so the mean of |g| is removed first; the discrepancy scales
    with volume^-1 and is absorbed by the recorded domination constant.
    """
    grid = g.grid
    d = grid.d
    if not (0.0 < s < d):
        raise ValueError(f"weight order must satisfy 0 < s < d = {d}, got {s}")
    _require_coarse(grid, "the near-origin split term")
    mag = np.abs(g.values)
    mag0 = mag - mag.mean()
    pot = riesz_potential(g.with_values(mag0), d - s)
    r = radius_mesh(grid, g.centering)
    outer = g.with_values(np.abs(pot.values.real) * r ** (-s))

    pts, radii = _flat_points(grid, g.centering)
    y_weight = mag.ravel() * radii ** (-s)
    hd = grid.h**d
    vals = np.empty(radii.size)
    y_norm2 = (pts**2).sum(axis=1)
    for start in range(0, radii.size, _CHUNK):
        sl = slice(start, min(start + _CHUNK, radii.size))
        xr = radii[sl]
        mask = radii[None, :] <= xr[:, None] / 2.0
        cross = pts[sl] @ pts.T
        dist2 = np.maximum(
            xr[:, None] ** 2 + y_norm2[None, :] - 2.0 * cross, 1e-300
        )
        kern = np.where(mask, dist2 ** ((s - d) / 2.0), 0.0)
        vals[sl] = (kern * y_weight[None, :]).sum(axis=1) * hd
    inner = g.with_values(vals.reshape(grid.shape))
    return outer, inner


def geometric_radii(grid: GridSpec, points: int = 256) -> np.ndarray:
    """Geometric radius grid from h/2 to L with the default 256 points."""
    return np.geomspace(grid.h / 2.0, grid.L, points)


def radial_average_profile(
    f: SampledField, radii: np.ndarray | None = None
) -> RadialProfile:
    """Spherical averages of |f| binned onto a radius grid (nearest bin in
    log radius); bins with no samples interpolate from their neighbours."""
    if radii is None:
        radii = geometric_radii(f.grid)
    r = radius_mesh(f.grid, f.centering).ravel()
    mag = np.abs(f.values).ravel()
    edges = np.sqrt(radii[:-1] * radii[1:])
    idx = np.searchsorted(edges, r)
    sums = np.bincount(idx, weights=mag, minlength=radii.size)
    counts = np.bincount(idx, minlength=radii.size)
    filled = counts > 0
    values = np.zeros(radii.size)
    values[filled] = sums[filled] / counts[filled]
    if not filled.all() and filled.any():
        values[~filled] = np.interp(
            np.log(radii[~filled]), np.log(radii[filled]), values[filled]
        )
    return RadialProfile(radii=radii, values=values)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(np.trapezoid(y, x))


def inner_ball_potential_radial(
    profile: RadialProfile,
    s: float,
    d: int,
    form: str = "direct",
) -> RadialProfile:
    """One-ray reduction of the inner-ball operator on a radial profile.

    form="direct" integrates r^(d-1) K(R, r) |g(r)| over r in (0, R/2];
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
            out[i] = (head + _trapezoid(integrand, rs)) * big_r ** (s - d)
    elif form == "substituted":
        t = np.geomspace(1e-4, 0.5, radii.size)
        for i, big_r in enumerate(radii):
            gi = np.interp(t * big_r, radii, mag, left=mag[0], right=0.0)
            integrand = t ** (d - 1.0 - s) * gi
            head = integrand[0] * t[0] / (d - s)
            out[i] = head + _trapezoid(integrand, t)
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


def inner_ball_bound_check(
    g: SampledField,
    s: float,
    q: float,
    tol: float = QUADRATURE_TOL,
) -> CheckReport:
    """Check int |U g|^q <= J^q |S^(d-1)|^q int |g|^q with the closed-form
    one-dimensional kernel integral J and the exact sphere area."""
    d = g.grid.d
    j_const = radial_kernel_integral(d, q, s)
    area = sphere_area(d)
    pot = inner_ball_potential(g, s)
    lhs = lq_norm(pot, q) ** q
    base = lq_norm(g, q) ** q
    rhs = j_const**q * area**q * base
    passed = lhs <= rhs * (1.0 + tol) or (lhs == 0.0 and rhs == 0.0)
    return CheckReport(
        identity="inner-ball-bound",
        d=d,
        n=g.grid.n,
        L=g.grid.L,
        s=s,
        q=q,
        lhs=lhs,
        rhs=rhs,
        quotient=lhs / rhs if rhs > 0 else None,
        bound_constant=j_const**q * area**q,
        tolerance=tol,
        passed=bool(passed),
        vacuous=(lhs == 0.0 and rhs == 0.0),
        extra={"kernel_integral": j_const, "sphere_area": area},
    )
