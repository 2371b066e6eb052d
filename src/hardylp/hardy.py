"""Hardy-type quotients and the step-by-step inequality chains behind them.

Every function returns a CheckReport carrying both sides of the inequality
it evaluates.  Explicit constants (4/(d-2)^2 for the classical quotient,
q/(d-q) for the gradient form) are asserted within the quadrature
tolerance; the remaining constants are unknown in closed form and are
recorded, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .littlewood_paley import (
    DyadicPartition,
    LevelSums,
    build_partition,
    group_sums,
    level_sums,
)
from .report import EXACT_TOL, QUADRATURE_TOL, CheckReport, check_report, within_bound
from .schur import hardy_kernel, schur_bound_check, schur_conditions
from .spectral_core import _even_lift, _even_norm, _even_octant, _even_parseval, _raise
from .spectral_core import (
    GRADIENT_MATRIX_N,
    SampledField,
    _even_gradient_magnitude,
    _gradient_symbols,
    _parseval_energy,
    _power_sum,
    _radius,
    _radius_power,
    axis_coordinates,
    fractional_laplacian,
    gradient_magnitude,
    lq_norm,
    sobolev_norm,
    weighted_lq_norm,
)

__all__ = [
    "FieldValues",
    "Check",
    "CHECKS",
    "IDENTITIES",
    "classical_hardy_quotient",
    "fractional_hardy_quotient",
    "besov_hardy_quotient",
    "refined_hardy_quotient",
    "gradient_hardy_quotient",
    "shell_radii",
    "shell_index_mesh",
    "shell_groups",
    "shell_chain_check",
    "holder_refinement_check",
]


def classical_hardy_quotient(
    f: SampledField, tol: float = QUADRATURE_TOL
) -> CheckReport:
    """int |f|^2 / |x|^2 against (4/(d-2)^2) int |grad f|^2, d >= 3.  An even
    f (_even_octant) is read on its octant alone."""
    grid, d = f.grid, f.grid.d
    if d < 3:
        raise ValueError(f"classical Hardy quotient needs d >= 3, got d = {d}")
    # ||grad f||_2^2 of the spectral gradient, by Parseval from one forward
    # FFT; for an even f, || |D| f ||_2^2 from one DCT, as its spectrum is 0
    # on the Nyquist planes where the gradient's symbol differs from |2 pi xi|
    octant = _even_octant(f)
    if octant is None:
        lhs = weighted_lq_norm(f, 1.0, 2.0) ** 2
        rhs = float(_parseval_energy(f, (np.abs(m) ** 2 for m in _gradient_symbols(f))))
    else:
        lhs = _even_norm(grid, octant, 2.0, -1.0) ** 2
        rhs = _even_parseval(grid, octant, 1.0) ** 2
    bound = 4.0 / (d - 2) ** 2
    return check_report(
        "classical", f.grid, 1.0, 2.0, lhs, rhs, bound_constant=bound,
        tolerance=tol, passed=within_bound(lhs, rhs, bound, tol),
    )


def _require_fractional(d: int, s: float, q: float) -> None:
    if not (1.0 < q < np.inf):  # first: the range of s divides by q
        raise ValueError(f"need 1 < q < inf, got q = {q}")
    if not (0.0 <= s < d / q):
        raise ValueError(f"need 0 <= s < d/q = {d / q:g}, got s = {s}")


class FieldValues:
    """The values of f its checks read, each made on first read and kept:
    weighted ||f / |x|^s||_q, lifted |D|^s f, sobolev || |D|^s f ||_q, and
    sums, the one level pass at (s, q) over partition (the default when None)
    with the pointwise sums of powers and, when shells, the shell sums.  sums
    drops lifted, a field array less in the pass: read |D|^s f before it, and
    sobolev before weighted, so a new grid's spectrum is freed first.

    An even field is read on its octant x_i > 0 (_octant, by _even_octant):
    these values, its gradient and classical quotients, chain link (a), and
    the values of 3.5 f and f - mean (mapped); |D|^s f is then _lift, the
    octant's DCT pair, never a full field.  of_octant starts from the octant;
    its f is built only if read."""

    def __init__(self, f: SampledField, s: float, q: float,
                 partition: DyadicPartition | None = None, powers=(), shells=False):
        self.f, self.grid, self.s, self.q = f, f.grid, s, q
        self.partition, self.powers, self.shells = partition, tuple(powers), shells

    @classmethod
    def of_octant(cls, grid, octant, s, q, partition=None, powers=(),
                  shells=False) -> FieldValues:
        """The values of the even field with octant x_i > 0."""
        values = cls.__new__(cls)
        vars(values).update(grid=grid, _octant=octant, s=s, q=q,
                            partition=partition, powers=tuple(powers), shells=shells)
        return values

    def mapped(self, fn) -> FieldValues:
        """The values at (s, q) of the field with samples fn(f.values), fn
        one that maps an even field's octant to its image's (3.5 v, v - mean
        v): on the octant when f is even."""
        if self._octant is None:
            return FieldValues(self.f.with_values(fn(self.f.values)), self.s, self.q)
        return FieldValues.of_octant(self.grid, fn(self._octant), self.s, self.q)

    @cached_property
    def f(self) -> SampledField:  # made for of_octant's values; __init__ sets f
        n = self.grid.n
        return SampledField(self.grid, np.pad(self._octant, (n // 2, 0), "symmetric"))

    @cached_property
    def _octant(self) -> np.ndarray | None:
        # s < 0 and q = inf keep the full path's refusal and weighted maximum
        return None if self.s < 0 or self.q == np.inf else _even_octant(self.f)

    @cached_property
    def weighted(self) -> float:
        g, s, q = self._octant, self.s, self.q
        if g is None:
            return weighted_lq_norm(self.f, s, q)
        return _even_norm(self.grid, g, q, -s)

    @cached_property
    def _lift(self) -> np.ndarray:  # the octant of |D|^s f
        return _even_lift(self.grid, self._octant, self.s) if self.s else self._octant

    @cached_property
    def lifted(self) -> SampledField:  # a full field's; an even one's is _lift
        return fractional_laplacian(self.f, self.s)

    @cached_property
    def sobolev(self) -> float:
        # sobolev_norm's own value: one forward FFT by Parseval at q = 2, the
        # L^q norm of |D|^s f otherwise (on the octant: a DCT, s > 0)
        g, s, q = self._octant, self.s, self.q
        if g is None:
            return sobolev_norm(self.f, s, q) if q == 2 else lq_norm(self.lifted, q)
        if q == 2 and s > 0:
            return _even_parseval(self.grid, g, s)
        return _even_norm(self.grid, self._lift, q)

    @cached_property
    def sums(self) -> LevelSums:
        self.__dict__.pop("lifted", None)
        grid, g = self.grid, self._octant
        self.partition = self.partition or build_partition(grid)
        centering = self.f.centering if g is None else "cell"  # an octant's is
        groups = shell_groups(grid, centering, g is not None) if self.shells else None
        return level_sums(self.f if g is None else g, self.partition, self.s, self.q,
                          self.powers, groups)


def fractional_hardy_quotient(values: FieldValues) -> CheckReport:
    """||f / |x|^s||_q against the homogeneous Sobolev norm || |D|^s f ||_q."""
    grid, s, q = values.grid, values.s, values.q
    _require_fractional(grid.d, s, q)
    sobolev = values.sobolev  # first: see FieldValues
    return check_report("fractional", grid, s, q, values.weighted, sobolev)


def besov_hardy_quotient(values: FieldValues) -> CheckReport:
    """||f / |x|^s||_q against the Besov norm with both exponents q."""
    grid, s, q = values.grid, values.s, values.q
    _require_fractional(grid.d, s, q)
    return check_report("besov", grid, s, q, values.weighted, values.sums.besov(q))


def refined_hardy_quotient(values: FieldValues) -> CheckReport:
    """||f / |x|^s||_q against the q > 2 refinement
    || |D|^s f ||_q^(1/q) * TL(s, q, 2(q-1))^((q-1)/q); values has the
    pointwise sums of power 2(q-1)."""
    grid, s, q = values.grid, values.s, values.q
    if q <= 2:
        raise ValueError(
            "refined quotient needs q > 2; use fractional_hardy_quotient for "
            "1 < q <= 2"
        )
    _require_fractional(grid.d, s, q)
    lhs, sobolev = values.weighted, values.sobolev
    tl = values.sums.triebel_lizorkin(2.0 * (q - 1.0))
    rhs = sobolev ** (1.0 / q) * tl ** ((q - 1.0) / q)
    return check_report(
        "refined", grid, s, q, lhs, rhs,
        extra={"sobolev_factor": sobolev, "tl_factor": tl},
    )


def gradient_hardy_quotient(
    f: SampledField,
    q: float,
    refined: bool = False,
    partition: DyadicPartition | None = None,
    tol: float = QUADRATURE_TOL,
    octant: np.ndarray | None = None,
) -> CheckReport:
    """||f / |x|||_q against the gradient bounds, q < d.

    Unrefined: right side (q/(d-q)) ||grad f||_q with the constant asserted.
    Refined (2 < q < d): ||grad f||_q^(1/q) * TL(1, q, 2(q-1))^((q-1)/q) with
    the constant recorded, plus the factor-by-factor chain
    TL(1,q,2(q-1)) <= TL(1,q,2) <~ ||grad f||_q.  Both norms are read from the
    octant of an even f (_even_octant) when given, if n/2 <= GRADIENT_MATRIX_N.
    """
    grid, d = f.grid, f.grid.d
    if not (1.0 < q < d):
        raise ValueError(f"gradient quotient needs 1 < q < d = {d}, got q = {q}")
    octant = octant if grid.n // 2 <= GRADIENT_MATRIX_N else None
    lhs = (weighted_lq_norm(f, 1.0, q) if octant is None  # order 1, whatever v's s
           else _even_norm(grid, octant, q, -1.0))
    grad_norm = (_power_sum(gradient_magnitude(f), grid.h**d, q) if octant is None
                 else _even_norm(grid, _even_gradient_magnitude(grid, octant), q))
    if not refined:
        bound = q / (d - q)
        return check_report(
            "gradient", f.grid, 1.0, q, lhs, grad_norm, bound_constant=bound,
            tolerance=tol, passed=within_bound(lhs, grad_norm, bound, tol),
        )
    if q <= 2:
        raise ValueError(f"refined gradient quotient needs 2 < q < d, got q = {q}")
    partition = partition or build_partition(f.grid)
    sums = level_sums(f, partition, 1.0, q, (2.0 * (q - 1.0), 2.0))
    tl_high = sums.triebel_lizorkin(2.0 * (q - 1.0))
    tl_two = sums.triebel_lizorkin(2.0)
    rhs = grad_norm ** (1.0 / q) * tl_high ** ((q - 1.0) / q)
    monotone_ok = tl_high <= tl_two * (1.0 + EXACT_TOL)
    return check_report(
        "gradient-refined", f.grid, 1.0, q, lhs, rhs,
        extra={
            "gradient_norm": grad_norm,
            "tl_factor": tl_high,
            "tl_two_factor": tl_two,
            "tl_monotone_ok": bool(monotone_ok),
            "square_vs_gradient": tl_two / grad_norm if grad_norm > 0 else None,
        },
    )


# ---------------------------------------------------------------------------
# dyadic spatial shells and the proof chain


def shell_radii(grid) -> tuple[float, ...]:
    """Dyadic shell radii h * 2^j from h up to L/2."""
    j_max = int(round(math.log2(grid.n))) - 1
    return tuple(grid.h * 2.0**j for j in range(j_max + 1))


def shell_index_mesh(grid, centering: str = "cell", octant: bool = False) -> np.ndarray:
    """Shell assignment per sample: index j with R_j/2 < |x| <= R_j; only on
    the samples of the octant x_i > 0 when octant, bitwise its block.

    Samples beyond L/2 (box corners) are assigned to the outermost shell,
    which loosens constants but never the direction of the shell bounds.
    """
    radii = shell_radii(grid)
    x = axis_coordinates(grid, centering)
    r = _radius([x[grid.n // 2 :] if octant else x] * grid.d)
    r /= grid.h  # in place: one field array less
    # the origin of a lattice grid is in shell 0, with the samples at r <= h
    idx = np.ceil(np.log2(np.where(r > 0, r, 1.0))).astype(int)
    return np.clip(idx, 0, len(radii) - 1)


@lru_cache(maxsize=2)
def shell_groups(grid, centering="cell", octant=False) -> tuple[np.ndarray, np.ndarray]:
    """The shells of shell_index_mesh (on the octant x_i > 0 when octant) as
    the (order, starts) sample groups of group_sums; every shell holds samples.
    The order is int32 (a grid holds at most 2**24 samples); read-only."""
    idx = shell_index_mesh(grid, centering, octant).ravel()
    order = np.argsort(idx, kind="stable").astype(np.int32)
    groups = order, np.cumsum(np.bincount(idx))[:-1]
    for a in groups:
        a.setflags(write=False)
    return groups


# A piece P_N f below this fraction of max |f - mean| is FFT rounding: a
# field's spectrum can miss a whole level, and the localization ratio of such
# a level is one rounding error over another.
NOISE_FLOOR = 1e-12


def _link(name, lhs, rhs, ratio, passed) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "ratio": ratio, "passed": passed}


def _shell_majorant_sums(values: FieldValues) -> tuple[float, np.ndarray, float]:
    """Link (a)'s sums of |f - mean|^q on the cells of the level pass of
    values: against |x|^(-s q) at the midpoints, and over each shell of
    shell_groups; and max |f - mean|.  An even f gives them on its octant."""
    grid, s, q = values.grid, values.s, values.q
    hd, octant = values.sums.cell_volume, values._octant
    if octant is None:
        samples, centering, x = values.f.values, values.f.centering, None
    else:
        samples, centering, x = octant, "cell", axis_coordinates(grid)[grid.n // 2 :]
    # plain midpoint weights: the 2^(sq) factor in link (a) is exact cell by
    # cell only when the weighted sum sees the same |x| values as the shells
    r = _radius_power(grid, centering, -s * q, x)
    absq = np.subtract(samples, np.mean(samples))  # |f - mean|^q, in place
    absq = np.abs(absq, out=absq if np.isrealobj(absq) else None)
    top = float(absq.max(initial=0.0))
    _raise(absq, q)
    lhs_q = float(np.multiply(r, absq, out=r).sum() * hd)
    del r
    masses = group_sums(absq, shell_groups(grid, centering, octant is not None)) * hd
    return lhs_q, masses, top


def shell_chain_check(values: FieldValues) -> CheckReport:
    """Verify each link of the shell-decomposition estimate chain.

    (a) the weighted integral against its dyadic-shell majorant with the
        exact factor 2^(s q);
    (b) the per-shell, per-level localization bound
        (int_shell |P_N f|^q)^(1/q) <= E_b min(1, (N R)^(d/q)) ||P_N f||_q,
        with the empirical constant E_b recorded; a level whose piece stays
        below NOISE_FLOOR * max |f - mean| is FFT rounding, and skipped;
    (c) the Schur-test application to the coupling kernel;
    (d) the end-to-end ratio against the assembled constant
        2^(sq) * E_b^q * a1 * a2.

    Link (a) and the noise floor read f - mean (_shell_majorant_sums): the
    decomposition reproduces only the mean-free part, matching the
    homogeneous setting.  Links (b) to (d) read the level sums of
    N^s |P_N f| with their per-shell sums, from the level pass of values,
    which has the shell sums; the pieces of f and of f - mean are the same,
    as every partition multiplier is exactly 0 at frequency zero.
    """
    grid, s, q = values.grid, values.s, values.q
    d = grid.d
    _require_fractional(d, s, q)
    if s == 0:
        raise ValueError("chain check needs s > 0")
    sums = values.sums  # first, so its pass holds none of link (a)'s arrays
    lhs_q, shell_mass, top = _shell_majorant_sums(values)
    floor = NOISE_FLOOR * top
    radii = shell_radii(grid)
    majorant = float(sum(R ** (-s * q) * m for R, m in zip(radii, shell_mass)))
    rhs_a = 2.0 ** (s * q) * majorant
    ratio_a = lhs_q / rhs_a if rhs_a > 0 else 0.0
    link_a = _link("shell-majorant", lhs_q, rhs_a, ratio_a, ratio_a <= 1.0 + 1e-12)

    levels = values.partition.levels
    c_vec = sums.norms  # N^s ||P_N f||_q

    # link (b): empirical localization constant over all (level, shell) pairs
    e_b = 0.0
    worst_pair = None
    for N, top, c, masses in zip(levels, sums.maxima, c_vec, sums.shells):
        if top <= floor * N**s:
            continue
        for R, mass in zip(radii, masses):
            shell_lq = float((mass * sums.cell_volume) ** (1.0 / q))
            cap = min(1.0, (N * R) ** (d / q)) * c
            if cap > 0 and shell_lq / cap > e_b:
                e_b = shell_lq / cap
                worst_pair = (N, R)
    # recorded, not asserted: the constant depends on the bump
    link_b = _link("shell-localization", e_b, 1.0, e_b, None)

    # link (c): Schur bound for the coupling kernel on the actual index sets
    kernel = hardy_kernel(s, d, q, levels, radii)
    a1, a2 = schur_conditions(kernel, q)
    lhs_c, rhs_c, ratio_c = schur_bound_check(kernel, dict(zip(levels, c_vec)), q)
    link_c = _link("schur-bound", lhs_c, rhs_c, ratio_c, ratio_c <= 1.0 + 1e-12)

    dyadic_sum = float((c_vec**q).sum())
    end_to_end = lhs_q / dyadic_sum if dyadic_sum > 0 else 0.0
    assembled = 2.0 ** (s * q) * e_b**q * a1 * a2
    passed = (
        link_a["passed"]
        and link_c["passed"]
        and within_bound(end_to_end, assembled, 1.0, 1e-9)
    ) or dyadic_sum == 0.0
    return CheckReport(
        identity="chain",
        d=d,
        n=grid.n,
        L=grid.L,
        s=s,
        q=q,
        lhs=end_to_end,
        rhs=assembled,
        quotient=end_to_end / assembled if assembled > 0 else None,
        passed=bool(passed),
        links=[link_a, link_b, link_c],
        extra={
            "shell_factor": 2.0 ** (s * q),
            "localization_constant": e_b,
            "schur_a1": a1,
            "schur_a2": a2,
            "worst_pair": list(worst_pair) if worst_pair else None,
        },
    )


def holder_refinement_check(values: FieldValues) -> CheckReport:
    """Check both displayed steps of the q > 2 refinement exactly.

    lhs = int sum_N N^(sq) |P_N f|^q
    mid = int sqrt(A) sqrt(B) after pointwise Cauchy-Schwarz over scales
    rhs = (int A^(q/2))^(1/q) * (int B^(q/(2(q-1))))^((q-1)/q)
    where A = sum_N N^(2s)|P_N f|^2 and B = sum_N N^(2s(q-1))|P_N f|^(2(q-1)).
    The check passes when lhs <= mid <= rhs up to EXACT_TOL * max(1, rhs),
    and the pointwise scale-monotonicity
    sum_N N^(sq)|P_N f(x)|^q <= (sum_N N^(2s)|P_N f(x)|^2)^(q/2)
    and the l^r monotonicity of the refinement aggregates hold to EXACT_TOL.
    values has the pointwise sums of powers q, 2 and 2(q-1).
    """
    s, q = values.s, values.q
    if q <= 2:
        raise ValueError(f"refinement steps need q > 2, got q = {q}")
    grid = values.grid
    t, a, b = (values.sums.powers[r] for r in (q, 2.0, 2.0 * (q - 1.0)))
    hd = values.sums.cell_volume
    lhs = float(t.sum() * hd)
    mid = float(np.sqrt(a * b).sum() * hd)
    a_half_q = a ** (q / 2.0)
    rhs = float(
        (a_half_q.sum() * hd) ** (1.0 / q)
        * ((b ** (q / (2.0 * (q - 1.0)))).sum() * hd) ** ((q - 1.0) / q)
    )
    scale = float(np.max(a_half_q, initial=0.0))
    pointwise = float(np.max(np.subtract(t, a_half_q, out=a_half_q), initial=0.0))
    del a_half_q
    pointwise = pointwise / scale if scale > 0 else 0.0
    # l^r monotonicity of the aggregates used by the refinement factors
    agg_two = np.sqrt(a)
    agg_high = b ** (1.0 / (2.0 * (q - 1.0)))
    mscale = float(np.max(agg_two, initial=0.0))
    monotone = float(np.max(np.subtract(agg_high, agg_two, out=agg_high), initial=0.0))
    monotone = monotone / mscale if mscale > 0 else 0.0
    tol_scale = EXACT_TOL * max(1.0, rhs)
    passed = (
        mid - lhs >= -tol_scale
        and rhs - mid >= -tol_scale
        and pointwise <= EXACT_TOL
        and monotone <= EXACT_TOL
    )
    return CheckReport(
        identity="holder-refinement",
        d=grid.d,
        n=grid.n,
        L=grid.L,
        s=s,
        q=q,
        lhs=lhs,
        rhs=rhs,
        quotient=lhs / rhs if rhs > 0 else None,
        passed=bool(passed),
        tolerance=EXACT_TOL,
        extra={"mid": mid},
    )


@dataclass(frozen=True)
class Check:
    """One per-field check: run(values, tol) gives its report on the
    FieldValues of a field, and the rest says what it reads of their level
    pass: any at all (levels), the pointwise sums of powers(q), and the shell
    sums (shells)."""

    run: Callable
    levels: bool = False
    powers: Callable = lambda q: ()
    shells: bool = False


# Every per-field check of this module by name.  The runs look the check
# functions up by module-global name when they run, so a wrapper installed
# on this module's bindings sees each call.
CHECKS = {
    "classical": Check(lambda v, tol: classical_hardy_quotient(v.f, tol)),
    "fractional": Check(lambda v, tol: fractional_hardy_quotient(v)),
    "besov": Check(lambda v, tol: besov_hardy_quotient(v), levels=True),
    "refined": Check(
        lambda v, tol: refined_hardy_quotient(v), True, lambda q: (2.0 * (q - 1.0),)
    ),
    "gradient": Check(
        lambda v, tol: gradient_hardy_quotient(v.f, v.q, tol=tol, octant=v._octant)
    ),
    "gradient-refined": Check(
        lambda v, tol: gradient_hardy_quotient(v.f, v.q, True, v.partition,
                                               octant=v._octant), True
    ),
    "chain": Check(lambda v, tol: shell_chain_check(v), True, shells=True),
    "holder-refinement": Check(
        lambda v, tol: holder_refinement_check(v),
        True,
        lambda q: (q, 2.0, 2.0 * (q - 1.0)),
    ),
}

# The Hardy identities, which hardy-check and sweep offer: the first six checks.
IDENTITIES = tuple(CHECKS)[:6]
