"""Hardy-type quotients and the step-by-step inequality chains behind them.

Every function returns a CheckReport carrying both sides of the inequality
it evaluates.  Explicit constants (4/(d-2)^2 for the classical quotient,
q/(d-q) for the gradient form) are asserted within the quadrature
tolerance; the remaining constants are unknown in closed form and are
recorded, never asserted.
"""

from __future__ import annotations

import math

import numpy as np

from .littlewood_paley import (
    DyadicPartition,
    _level_norms,
    _triebel_lizorkin_norm,
    _weighted_stack,
    besov_norm,
    build_partition,
    triebel_lizorkin_norm,
)
from .report import EXACT_TOL, QUADRATURE_TOL, CheckReport
from .schur import SchurKernel, hardy_kernel_entry, schur_conditions
from .spectral_core import (
    SampledField,
    _lq,
    gradient_magnitude,
    radius_mesh,
    sobolev_norm,
    weighted_lq_norm,
)

__all__ = [
    "IDENTITIES",
    "classical_hardy_quotient",
    "fractional_hardy_quotient",
    "besov_hardy_quotient",
    "refined_hardy_quotient",
    "gradient_hardy_quotient",
    "shell_radii",
    "shell_index_mesh",
    "shell_chain_check",
    "holder_refinement_check",
]


def _report(identity, f, s, q, lhs, rhs, **kw) -> CheckReport:
    quotient = None
    vacuous = False
    if rhs > 0:
        quotient = lhs / rhs
    elif lhs == 0:
        vacuous = True
    return CheckReport(
        identity=identity,
        d=f.grid.d,
        n=f.grid.n,
        L=f.grid.L,
        s=s,
        q=q,
        lhs=lhs,
        rhs=rhs,
        quotient=quotient,
        vacuous=vacuous,
        **kw,
    )


def _bound_passed(lhs, rhs, bound, tol) -> bool:
    return lhs <= bound * rhs * (1.0 + tol) or (lhs == 0.0 and rhs == 0.0)


def classical_hardy_quotient(
    f: SampledField, tol: float = QUADRATURE_TOL
) -> CheckReport:
    """int |f|^2 / |x|^2 against (4/(d-2)^2) int |grad f|^2, d >= 3."""
    d = f.grid.d
    if d < 3:
        raise ValueError(f"classical Hardy quotient needs d >= 3, got d = {d}")
    lhs = weighted_lq_norm(f, 1.0, 2.0) ** 2
    rhs = _lq(gradient_magnitude(f), f.grid.h**d, 2.0) ** 2
    bound = 4.0 / (d - 2) ** 2
    return _report(
        "classical",
        f,
        1.0,
        2.0,
        lhs,
        rhs,
        bound_constant=bound,
        tolerance=tol,
        passed=_bound_passed(lhs, rhs, bound, tol),
    )


def _require_fractional(d: int, s: float, q: float) -> None:
    if not (0.0 <= s < d / q):
        raise ValueError(f"need 0 <= s < d/q = {d / q:g}, got s = {s}")
    if not (1.0 < q < np.inf):
        raise ValueError(f"need 1 < q < inf, got q = {q}")


def fractional_hardy_quotient(f: SampledField, s: float, q: float) -> CheckReport:
    """||f / |x|^s||_q against the homogeneous Sobolev norm || |D|^s f ||_q."""
    _require_fractional(f.grid.d, s, q)
    lhs = weighted_lq_norm(f, s, q)
    rhs = sobolev_norm(f, s, q)
    return _report("fractional", f, s, q, lhs, rhs)


def besov_hardy_quotient(
    f: SampledField,
    s: float,
    q: float,
    partition: DyadicPartition | None = None,
) -> CheckReport:
    """||f / |x|^s||_q against the Besov norm with both exponents q."""
    _require_fractional(f.grid.d, s, q)
    if partition is None:
        partition = build_partition(f.grid)
    lhs = weighted_lq_norm(f, s, q)
    rhs = besov_norm(f, partition, s, q, q)
    return _report("besov", f, s, q, lhs, rhs)


def refined_hardy_quotient(
    f: SampledField,
    s: float,
    q: float,
    partition: DyadicPartition | None = None,
) -> CheckReport:
    """||f / |x|^s||_q against the q > 2 refinement
    || |D|^s f ||_q^(1/q) * TL(s, q, 2(q-1))^((q-1)/q)."""
    if q <= 2:
        raise ValueError(
            "refined quotient needs q > 2; use fractional_hardy_quotient for "
            "1 < q <= 2"
        )
    _require_fractional(f.grid.d, s, q)
    if partition is None:
        partition = build_partition(f.grid)
    lhs = weighted_lq_norm(f, s, q)
    sobolev = sobolev_norm(f, s, q)
    tl = triebel_lizorkin_norm(f, partition, s, q, 2.0 * (q - 1.0))
    rhs = sobolev ** (1.0 / q) * tl ** ((q - 1.0) / q)
    return _report(
        "refined",
        f,
        s,
        q,
        lhs,
        rhs,
        extra={"sobolev_factor": sobolev, "tl_factor": tl},
    )


def gradient_hardy_quotient(
    f: SampledField,
    q: float,
    refined: bool = False,
    partition: DyadicPartition | None = None,
    tol: float = QUADRATURE_TOL,
) -> CheckReport:
    """||f / |x|||_q against the gradient bounds, q < d.

    Unrefined: right side (q/(d-q)) ||grad f||_q with the constant asserted.
    Refined (2 < q < d): ||grad f||_q^(1/q) * TL(1, q, 2(q-1))^((q-1)/q) with
    the constant recorded, plus the factor-by-factor chain
    TL(1,q,2(q-1)) <= TL(1,q,2) <~ ||grad f||_q.
    """
    d = f.grid.d
    if not (1.0 < q < d):
        raise ValueError(f"gradient quotient needs 1 < q < d = {d}, got q = {q}")
    lhs = weighted_lq_norm(f, 1.0, q)
    grad_norm = _lq(gradient_magnitude(f), f.grid.h**d, q)
    if not refined:
        bound = q / (d - q)
        return _report(
            "gradient",
            f,
            1.0,
            q,
            lhs,
            grad_norm,
            bound_constant=bound,
            tolerance=tol,
            passed=_bound_passed(lhs, grad_norm, bound, tol),
        )
    if q <= 2:
        raise ValueError(f"refined gradient quotient needs 2 < q < d, got q = {q}")
    if partition is None:
        partition = build_partition(f.grid)
    stack = _weighted_stack(f, partition, 1.0)
    tl_high = _triebel_lizorkin_norm(f, stack, q, 2.0 * (q - 1.0))
    tl_two = _triebel_lizorkin_norm(f, stack, q, 2.0)
    rhs = grad_norm ** (1.0 / q) * tl_high ** ((q - 1.0) / q)
    monotone_ok = tl_high <= tl_two * (1.0 + EXACT_TOL)
    return _report(
        "gradient-refined",
        f,
        1.0,
        q,
        lhs,
        rhs,
        extra={
            "gradient_norm": grad_norm,
            "tl_factor": tl_high,
            "tl_two_factor": tl_two,
            "tl_monotone_ok": bool(monotone_ok),
            "square_vs_gradient": tl_two / grad_norm if grad_norm > 0 else None,
        },
    )


# Every Hardy identity by name: (needs a dyadic partition, quotient call).  A
# call takes (f, s, q, partition, tol) and ignores what its identity does not
# use.  The lambdas look the quotient functions up by module-global name when
# they run, so a wrapper installed on this module's bindings sees each call.
IDENTITIES = {
    "classical": (False, lambda f, s, q, p, tol: classical_hardy_quotient(f, tol)),
    "fractional": (False, lambda f, s, q, p, tol: fractional_hardy_quotient(f, s, q)),
    "besov": (True, lambda f, s, q, p, tol: besov_hardy_quotient(f, s, q, p)),
    "refined": (True, lambda f, s, q, p, tol: refined_hardy_quotient(f, s, q, p)),
    "gradient": (False, lambda f, s, q, p, tol: gradient_hardy_quotient(f, q, tol=tol)),
    "gradient-refined": (
        True,
        lambda f, s, q, p, tol: gradient_hardy_quotient(f, q, True, p),
    ),
}


# ---------------------------------------------------------------------------
# dyadic spatial shells and the proof chain


def shell_radii(grid) -> tuple[float, ...]:
    """Dyadic shell radii h * 2^j from h up to L/2."""
    j_max = int(round(math.log2(grid.n))) - 1
    return tuple(grid.h * 2.0**j for j in range(j_max + 1))


def shell_index_mesh(grid, centering: str = "cell") -> np.ndarray:
    """Shell assignment per sample: index j with R_j/2 < |x| <= R_j.

    Samples beyond L/2 (box corners) are assigned to the outermost shell,
    which loosens constants but never the direction of the shell bounds.
    """
    radii = shell_radii(grid)
    r = radius_mesh(grid, centering)
    with np.errstate(divide="ignore"):
        idx = np.ceil(np.log2(np.where(r > 0, r, 1.0) / grid.h)).astype(int)
    return np.clip(idx, 0, len(radii) - 1)


def _link(name, lhs, rhs, ratio, passed) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "ratio": ratio, "passed": passed}


def shell_chain_check(
    f: SampledField,
    s: float,
    q: float,
    partition: DyadicPartition | None = None,
) -> CheckReport:
    """Verify each link of the shell-decomposition estimate chain.

    (a) the weighted integral against its dyadic-shell majorant with the
        exact factor 2^(s q);
    (b) the per-shell, per-level localization bound
        (int_shell |P_N f|^q)^(1/q) <= E_b min(1, (N R)^(d/q)) ||P_N f||_q,
        with the empirical constant E_b recorded;
    (c) the Schur-test application to the coupling kernel;
    (d) the end-to-end ratio against the assembled constant
        2^(sq) * E_b^q * a1 * a2.

    The field's mean is removed first: the decomposition reproduces only the
    mean-free part, matching the homogeneous setting.
    """
    grid = f.grid
    d = grid.d
    _require_fractional(d, s, q)
    if s == 0:
        raise ValueError("chain check needs s > 0")
    if partition is None:
        partition = build_partition(grid)
    f0 = f.with_values(f.values - np.mean(f.values))
    hd = grid.h**d
    absq = np.abs(f0.values) ** q

    # plain midpoint weights: the 2^(sq) factor in link (a) is exact cell by
    # cell only when the weighted sum sees the same |x| values as the shells
    r = radius_mesh(grid, f.centering)
    lhs_q = float((absq * r ** (-s * q)).sum() * hd)

    radii = shell_radii(grid)
    shell_idx = shell_index_mesh(grid, f.centering)
    shell_mass = np.array(
        [float(absq[shell_idx == j].sum() * hd) for j in range(len(radii))]
    )
    majorant = float(sum(R ** (-s * q) * m for R, m in zip(radii, shell_mass)))
    rhs_a = 2.0 ** (s * q) * majorant
    ratio_a = lhs_q / rhs_a if rhs_a > 0 else 0.0
    link_a = _link("shell-majorant", lhs_q, rhs_a, ratio_a, ratio_a <= 1.0 + 1e-12)

    levels = partition.levels
    stack = _weighted_stack(f0, partition, s)
    c_vec = _level_norms(f0, stack, q)  # N^s ||P_N f||_q

    # link (b): empirical localization constant over all (level, shell) pairs
    e_b = 0.0
    worst_pair = None
    for N, piece, c in zip(levels, stack, c_vec):
        if c == 0.0:
            continue
        pabsq = piece**q
        for j, R in enumerate(radii):
            shell_lq = float((pabsq[shell_idx == j].sum() * hd) ** (1.0 / q))
            cap = min(1.0, (N * R) ** (d / q)) * c
            if cap > 0 and shell_lq / cap > e_b:
                e_b = shell_lq / cap
                worst_pair = (N, R)
    # recorded, not asserted: the constant depends on the bump
    link_b = _link("shell-localization", e_b, 1.0, e_b, None)

    # link (c): Schur bound for the coupling kernel on the actual index sets
    kernel = SchurKernel(
        entry=lambda N, R: hardy_kernel_entry(N, R, s, d, q),
        weights=lambda _: 1.0,
        levels=levels,
        col_levels=radii,
    )
    a1, a2 = schur_conditions(kernel, q)
    entries = kernel.entries()
    inner = (entries * c_vec[:, None]).sum(axis=0)
    lhs_c = float((inner**q).sum())
    rhs_c = float(a1 * a2 * (c_vec**q).sum())
    ratio_c = lhs_c / rhs_c if rhs_c > 0 else 0.0
    link_c = _link("schur-bound", lhs_c, rhs_c, ratio_c, ratio_c <= 1.0 + 1e-12)

    dyadic_sum = float((c_vec**q).sum())
    end_to_end = lhs_q / dyadic_sum if dyadic_sum > 0 else 0.0
    assembled = 2.0 ** (s * q) * e_b**q * a1 * a2
    passed = (
        link_a["passed"]
        and link_c["passed"]
        and end_to_end <= assembled * (1.0 + 1e-9)
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


def holder_refinement_check(
    f: SampledField,
    s: float,
    q: float,
    partition: DyadicPartition | None = None,
) -> CheckReport:
    """Check both displayed steps of the q > 2 refinement exactly.

    lhs = int sum_N N^(sq) |P_N f|^q
    mid = int sqrt(A) sqrt(B) after pointwise Cauchy-Schwarz over scales
    rhs = (int A^(q/2))^(1/q) * (int B^(q/(2(q-1))))^((q-1)/q)
    where A = sum_N N^(2s)|P_N f|^2 and B = sum_N N^(2s(q-1))|P_N f|^(2(q-1)).
    The check passes when lhs <= mid <= rhs up to EXACT_TOL * max(1, rhs),
    and the pointwise scale-monotonicity
    sum_N N^(sq)|P_N f(x)|^q <= (sum_N N^(2s)|P_N f(x)|^2)^(q/2)
    and the l^r monotonicity of the refinement aggregates hold to EXACT_TOL.
    """
    if q <= 2:
        raise ValueError(f"refinement steps need q > 2, got q = {q}")
    grid = f.grid
    if partition is None:
        partition = build_partition(grid)
    stack = _weighted_stack(f, partition, s)
    hd = grid.h**grid.d
    t = (stack**q).sum(axis=0)
    a = (stack**2).sum(axis=0)
    b = (stack ** (2.0 * (q - 1.0))).sum(axis=0)
    lhs = float(t.sum() * hd)
    mid = float(np.sqrt(a * b).sum() * hd)
    rhs = float(
        ((a ** (q / 2.0)).sum() * hd) ** (1.0 / q)
        * ((b ** (q / (2.0 * (q - 1.0)))).sum() * hd) ** ((q - 1.0) / q)
    )
    scale = float(np.max(a ** (q / 2.0), initial=0.0))
    pointwise = float(np.max(t - a ** (q / 2.0), initial=0.0))
    pointwise = pointwise / scale if scale > 0 else 0.0
    # l^r monotonicity of the aggregates used by the refinement factors
    agg_two = np.sqrt(a)
    agg_high = b ** (1.0 / (2.0 * (q - 1.0)))
    mscale = float(np.max(agg_two, initial=0.0))
    monotone = float(np.max(agg_high - agg_two, initial=0.0))
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

