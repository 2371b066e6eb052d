"""Command-line front end: individual checks, verification suites, sweeps,
and constant estimation, with machine-readable reports.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one check
failed, 2 usage or configuration error, 3 internal error.  Reports go to
stdout as a JSON array (CSV with --format csv; estimate-constant prints one
JSON object and refuses CSV); --out adds them to a JSON or CSV report file
instead, and refuses a file of another kind.

Each subcommand takes --config and only the flags its handler reads
(COMMAND_FLAGS); any other flag is a usage error, exit 2.  Config-file keys
are not checked per command, and a key the command does not read is ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import corpus as corpus_mod
from .extremal import ESTIMATE_IDENTITIES, estimate_constant
from .hardy import (
    IDENTITIES,
    besov_hardy_quotient,
    classical_hardy_quotient,
    fractional_hardy_quotient,
    gradient_hardy_quotient,
    holder_refinement_check,
    refined_hardy_quotient,
    shell_chain_check,
    shell_groups,
)
from .littlewood_paley import besov_terms, build_partition, level_sums, partition_record
from .report import (
    EXACT_TOL,
    QUADRATURE_TOL,
    CheckReport,
    reports_to_csv,
    reports_to_json,
    summarize,
)
from .schur import (
    ROW_SUM_TOL,
    dyadic_levels,
    hardy_kernel,
    hardy_row_sums,
    schur_bound_check,
    schur_conditions,
)
from .spectral_core import (
    boundary_decay,
    fractional_laplacian,
    lq_norm,
    make_grid,
    read_field,
    sobolev_norm,
    weighted_lq_norm,
)
from .stein_weiss import (
    RadialProfile,
    SteinWeissParams,
    geometric_radii,
    inner_ball_bound_check,
    inner_ball_potential_radial,
    riesz_constant,
    stein_weiss_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DECAY_THRESHOLD = 1e-8

SUITES = ("hardy", "schur", "stein-weiss", "chain", "all")


@dataclass
class RunConfig:
    """Flat run configuration; round-trips losslessly through JSON."""

    command: str = ""
    d: int = 3
    n: int = 32
    L: float = 20.0
    s: float = 1.0
    q: float = 2.0
    r: float = 2.0
    lam: float | None = None
    alpha: float = 0.0
    beta: float | None = None
    p: float | None = None
    corpus_size: int = 6
    seed: int = 1
    tolerance: float | None = None
    out: str | None = None
    fmt: str = "json"
    suite: str = "all"
    kind: str = "lq"
    identity: str = "fractional"
    field: str | None = None
    axis: str = "s"
    values: str | None = None
    start: float | None = None
    stop: float | None = None
    step: float | None = None
    budget: int = 80
    coverage: float = 0.5

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        hints = typing.get_type_hints(cls)
        bad = set(data) - set(hints)
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**{k: _typed(k, v, hints[k]) for k, v in data.items()})


def _typed(name: str, value, hint):
    """value if it fits its config field's type; an int fits a float field
    and is returned as a float, a bool fits no field."""
    allowed = typing.get_args(hint) or (hint,)
    if value is None and type(None) in allowed:
        return None
    if not isinstance(value, bool):
        if float in allowed and isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, tuple(t for t in allowed if t in (int, str))):
            return value
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise ValueError(f"config key {name!r} must be {names}, got {value!r}")


def _check_decay(f, label: str) -> None:
    worst = boundary_decay(f)
    if worst > DECAY_THRESHOLD:
        print(
            f"warning: {label}: boundary samples reach {worst:.2e} > "
            f"{DECAY_THRESHOLD:g}; the periodic box is a poor proxy for this field",
            file=sys.stderr,
        )


def _write_json(path: str, update) -> None:
    """Write update(existing) to path as JSON, where existing is the file's
    parsed content, or None when there is no file.

    A file that does not parse as JSON is refused, never overwritten.  The
    text goes to a temporary file in the same directory, which then replaces
    the target in one os.replace, so an interrupted write leaves it intact.
    """
    try:
        with open(path) as fh:
            existing = json.load(fh)
    except FileNotFoundError:
        existing = None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(
            f"refusing to overwrite {path}: not a JSON file ({exc})"
        ) from exc
    text = json.dumps(update(existing), sort_keys=True, indent=2, allow_nan=False)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _append_csv(path: str, reports) -> None:
    """Append the CSV rows of reports to path, after a header only in a new or
    empty file; a file whose first line is not the header is left as it was."""
    header, _, rows = reports_to_csv(reports).partition("\n")
    with open(path, "a+") as fh:
        fh.seek(0)
        first = fh.readline()
        if first not in ("", header + "\n"):
            raise ValueError(f"refusing to append to {path}: not a CSV report file")
        fh.write(rows if first else header + "\n" + rows)


def _emit(reports, cfg: RunConfig) -> None:
    """Print the reports, or write them to --out: JSON reports join the
    array the file holds, CSV rows are appended."""

    def merged(existing):
        if existing is not None and not isinstance(existing, list):
            raise ValueError(f"refusing to overwrite {cfg.out}: not a report array")
        return (existing or []) + [r.to_dict() for r in reports]

    if not cfg.out:
        print(reports_to_csv(reports) if cfg.fmt == "csv" else reports_to_json(reports))
    elif cfg.fmt == "csv":
        _append_csv(cfg.out, reports)
    else:
        _write_json(cfg.out, merged)


def _exit_from(reports) -> int:
    checked, _, failed = summarize(reports)
    if failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(cfg: RunConfig) -> int:
    """Evaluate one norm of a stored field."""
    if not cfg.field:
        raise ValueError("norm needs --field FILE")
    f = read_field(cfg.field)
    _check_decay(f, cfg.field)
    grid = f.grid
    extra = {}
    if cfg.kind == "lq":
        value = lq_norm(f, cfg.q)
    elif cfg.kind == "weighted":
        value = weighted_lq_norm(f, cfg.s, cfg.q)
    elif cfg.kind == "sobolev":
        value = sobolev_norm(f, cfg.s, cfg.q)
    elif cfg.kind in ("besov", "triebel-lizorkin"):
        part = build_partition(grid, cfg.coverage)
        tl = cfg.kind == "triebel-lizorkin"
        sums = level_sums(f, part, cfg.s, cfg.q, (cfg.r,) if tl else ())
        value = sums.triebel_lizorkin(cfg.r) if tl else sums.besov(cfg.r)
        extra = {
            "last_level": part.n_max,
            "last_level_contribution": float(sums.norms[-1]),
        }
    else:
        raise ValueError(f"unknown norm kind {cfg.kind!r}")
    report = CheckReport(
        identity=f"norm-{cfg.kind}",
        d=grid.d,
        n=grid.n,
        L=grid.L,
        s=cfg.s,
        q=cfg.q,
        lhs=float(value),
        rhs=0.0,
        extra=extra,
    )
    _emit([report], cfg)
    return EXIT_OK


def cmd_lp(cfg: RunConfig) -> int:
    """Dyadic decomposition of a stored field."""
    if not cfg.field:
        raise ValueError("lp needs --field FILE")
    f = read_field(cfg.field)
    part = build_partition(f.grid, cfg.coverage)
    record = json.loads(partition_record(part))
    reports = [
        CheckReport(
            identity="lp-piece",
            d=f.grid.d,
            n=f.grid.n,
            L=f.grid.L,
            s=N,
            q=2.0,
            lhs=norm,
            rhs=0.0,
            extra={"partition": record},
        )
        for N, norm in besov_terms(f, part, 0.0, 2.0).items()
    ]
    _emit(reports, cfg)
    return EXIT_OK


def _hardy_reports(cfg: RunConfig, warn: bool) -> list[CheckReport]:
    """cfg.identity's quotient on every corpus field; warn flags fields that
    do not decay at the box faces."""
    if cfg.identity not in IDENTITIES:
        raise ValueError(f"unknown hardy identity {cfg.identity!r}")
    needs_partition, quotient = IDENTITIES[cfg.identity]
    grid = make_grid(cfg.d, cfg.n, cfg.L)
    partition = build_partition(grid, cfg.coverage) if needs_partition else None
    tol = cfg.tolerance if cfg.tolerance is not None else QUADRATURE_TOL
    reports = []
    for label, f in corpus_mod.corpus_fields(
        grid, cfg.corpus_size, cfg.seed, s=cfg.s, q=cfg.q
    ):
        if warn:
            _check_decay(f, label)
        reports += _labelled([quotient(f, cfg.s, cfg.q, partition, tol)], label)
    return reports


def cmd_hardy_check(cfg: RunConfig) -> int:
    """Hardy quotients over a corpus."""
    reports = _hardy_reports(cfg, warn=True)
    _emit(reports, cfg)
    return _exit_from(reports)


def cmd_schur_check(cfg: RunConfig) -> int:
    """Schur test row sums and bounds."""
    reports = _schur_suite(cfg)
    _emit(reports, cfg)
    return _exit_from(reports)


def cmd_stein_weiss_check(cfg: RunConfig) -> int:
    """Two-weight inequality quotients."""
    lam = cfg.lam if cfg.lam is not None else cfg.d - cfg.s
    beta = cfg.beta if cfg.beta is not None else cfg.s
    p = cfg.p if cfg.p is not None else cfg.q
    params = SteinWeissParams(
        lam=lam, p=p, q=cfg.q, alpha=cfg.alpha, beta=beta, d=cfg.d
    )
    params.require()
    grid = make_grid(cfg.d, cfg.n, cfg.L)
    reports = []
    for label, f in corpus_mod.corpus_fields(
        grid, cfg.corpus_size, cfg.seed, s=beta, q=cfg.q
    ):
        f0 = f.with_values(f.values - np.mean(f.values))
        reports += _labelled([stein_weiss_check(f0, params)], label)
    _emit(reports, cfg)
    return _exit_from(reports)


def cmd_estimate_constant(cfg: RunConfig) -> int:
    """Maximize a quotient over trials."""
    if cfg.fmt != "json":
        raise ValueError(f"estimate-constant writes JSON only, got format {cfg.fmt!r}")
    est = estimate_constant(
        cfg.identity,
        cfg.d,
        cfg.s,
        cfg.q,
        budget=cfg.budget,
        n=cfg.n,
        L=cfg.L,
        seed=cfg.seed,
    )
    if cfg.out:
        _write_json(cfg.out, lambda _: est.to_dict())
    print(json.dumps(est.to_dict(), sort_keys=True, indent=2, allow_nan=False))
    return EXIT_OK


def _sweep_values(cfg: RunConfig) -> list[float]:
    if cfg.values:
        vals = [float(v) for v in cfg.values.split(",") if v.strip()]
    elif cfg.start is not None and cfg.stop is not None and cfg.step:
        vals = list(np.arange(cfg.start, cfg.stop + 1e-12, cfg.step))
    else:
        raise ValueError("sweep needs --values or --start/--stop/--step")
    if not vals:
        raise ValueError("empty sweep range")
    if not np.isfinite(vals).all():
        raise ValueError(f"sweep values must be finite, got {vals}")
    return vals


def cmd_sweep(cfg: RunConfig) -> int:
    """Parameter sweep, CSV output."""
    vals = _sweep_values(cfg)
    if cfg.axis not in ("s", "q", "n"):
        raise ValueError(f"sweep axis must be s, q or n, got {cfg.axis!r}")
    reports = []
    for v in vals:
        value = int(round(v)) if cfg.axis == "n" else float(v)
        reports += _hardy_reports(replace(cfg, **{cfg.axis: value}), warn=False)
    _emit(reports, replace(cfg, fmt="csv"))
    return _exit_from(reports)


# ---------------------------------------------------------------------------
# verification suites


def _schur_suite(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    sum_n, sum_r, closed = hardy_row_sums(cfg.s, cfg.d, cfg.q)
    reports.append(
        CheckReport(
            identity="schur-row-sum",
            d=cfg.d,
            n=cfg.n,
            L=cfg.L,
            s=cfg.s,
            q=cfg.q,
            lhs=sum_n,
            rhs=closed,
            quotient=sum_n / closed,
            tolerance=ROW_SUM_TOL,
            passed=abs(sum_n - closed) <= ROW_SUM_TOL and sum_n == sum_r,
            extra={"sum_over_shells": sum_r},
        )
    )
    kern = hardy_kernel(cfg.s, cfg.d, cfg.q)
    a1, a2 = schur_conditions(kern, cfg.q)
    reports.append(
        CheckReport(
            identity="schur-conditions",
            d=cfg.d,
            n=cfg.n,
            L=cfg.L,
            s=cfg.s,
            q=cfg.q,
            lhs=a1,
            rhs=a2,
            bound_constant=a1 * a2,
            passed=np.isfinite(a1 * a2),
        )
    )
    rng = np.random.default_rng(cfg.seed)
    levels = dyadic_levels(8)
    small = hardy_kernel(cfg.s, cfg.d, cfg.q, levels)
    trials = max(cfg.corpus_size * 5, 20)
    worst = 0.0
    for _ in range(trials):
        c = {N: float(v) for N, v in zip(levels, rng.random(len(levels)))}
        _, _, ratio = schur_bound_check(small, c, cfg.q)
        worst = max(worst, ratio)
    reports.append(
        CheckReport(
            identity="schur-bound",
            d=cfg.d,
            n=cfg.n,
            L=cfg.L,
            s=cfg.s,
            q=cfg.q,
            lhs=worst,
            rhs=1.0,
            quotient=worst,
            tolerance=EXACT_TOL,
            passed=worst <= 1.0 + EXACT_TOL,
            extra={"trials": trials},
        )
    )
    return reports


def _labelled(reports: list[CheckReport], label: str) -> list[CheckReport]:
    for rep in reports:
        rep.extra["field"] = label
    return reports


def _fractional_report(f, s: float, q: float, sobolev: float) -> CheckReport:
    """The fractional quotient of f, asserted homogeneous: the quotient of
    3.5 f must match it to EXACT_TOL."""
    frac = fractional_hardy_quotient(f, s, q, sobolev=sobolev)
    scaled = fractional_hardy_quotient(f.with_values(3.5 * f.values), s, q)
    if frac.quotient is not None and scaled.quotient is not None:
        drift = abs(scaled.quotient - frac.quotient) / max(frac.quotient, 1e-300)
        frac.passed = drift <= EXACT_TOL
        frac.tolerance = EXACT_TOL
        frac.extra["homogeneity_drift"] = drift
    return frac


def _specialization_report(cfg: RunConfig, f, lifted, sobolev, params, c):
    """Stein-Weiss at alpha = 0, beta = s, lam = d - s on |D|^s f against c
    times the fractional Hardy quotient of f - mean, or None when either
    quotient is vacuous.  lifted is |D|^s f and sobolev its L^q norm; both
    are the same for f and f - mean, as |2 pi xi|^s vanishes at xi = 0."""
    f0 = f.with_values(f.values - np.mean(f.values))
    base = fractional_hardy_quotient(f0, cfg.s, cfg.q, sobolev=sobolev)
    sw = stein_weiss_check(lifted, params)
    if not (base.quotient and sw.quotient):
        return None
    ratio = sw.quotient / (c * base.quotient)
    return CheckReport(
        identity="stein-weiss-specialization",
        d=cfg.d,
        n=cfg.n,
        L=cfg.L,
        s=cfg.s,
        q=cfg.q,
        lhs=sw.quotient,
        rhs=c * base.quotient,
        quotient=ratio,
        tolerance=0.02,
        passed=abs(ratio - 1.0) <= 0.02,
        extra={"riesz_constant": c},
    )


def _field_reports(cfg: RunConfig, runs, f, partition, specialization):
    """One corpus field through the per-field checks of every suite in runs,
    as {suite: reports}.

    |D|^s f is computed once, for the fractional and refined Sobolev factor
    and the stein-weiss specialization, and freed before the field's one
    level pass; the Besov, refined, chain and Holder checks all read the
    sums of that pass.  specialization is the (params, Riesz constant) pair
    of the stein-weiss specialization when that suite runs; in d = 4 that
    suite's inner-ball bound also runs on f.
    """
    s, q = cfg.s, cfg.q
    tol = cfg.tolerance if cfg.tolerance is not None else QUADRATURE_TOL
    hardy, sw, ball, chain = [], [], [], []
    sobolev = weighted = None
    if runs & {"hardy", "stein-weiss"}:
        lifted = None
        if q != 2 or specialization is not None:
            lifted = fractional_laplacian(f, s)
        # sobolev_norm's own value: one forward FFT by Parseval at q = 2, the
        # L^q norm of |D|^s f otherwise
        sobolev = sobolev_norm(f, s, q) if q == 2 else lq_norm(lifted, q)
        if "hardy" in runs:
            if cfg.d >= 3:
                hardy.append(classical_hardy_quotient(f, tol))
            if q < cfg.d:
                hardy.append(gradient_hardy_quotient(f, q, tol=tol))
            hardy.append(_fractional_report(f, s, q, sobolev))
            weighted = hardy[-1].lhs  # ||f / |x|^s||_q, for besov and refined
        if specialization is not None:
            rep = _specialization_report(cfg, f, lifted, sobolev, *specialization)
            if rep is not None:
                sw.append(rep)
        del lifted
    if specialization is not None and cfg.d == 4 and cfg.d - cfg.d / q - s > 0:
        ball.append(inner_ball_bound_check(f, s, q))
    if partition is not None:
        # the refined check reads the pointwise sum of p_N^(2(q-1)), the
        # Holder check also those of p_N^q and p_N^2, the chain the shell sums
        high = (2.0 * (q - 1.0),) if q > 2 else ()
        powers = high + ((q, 2.0) if high and "chain" in runs else ())
        shells = shell_groups(f.grid, f.centering) if "chain" in runs else None
        sums = level_sums(f, partition, s, q, powers, shells)
        if "hardy" in runs:
            hardy.append(
                besov_hardy_quotient(f, s, q, partition, sums=sums, weighted=weighted)
            )
            if q > 2:
                hardy.append(refined_hardy_quotient(
                    f, s, q, partition, sums=sums, sobolev=sobolev, weighted=weighted
                ))
        if "chain" in runs:
            chain.append(shell_chain_check(f, s, q, partition, sums=sums))
            if q > 2:
                chain.append(holder_refinement_check(f, s, q, partition, sums=sums))
    return {"hardy": hardy, "stein-weiss": sw, "inner-ball": ball, "chain": chain}


def _stein_weiss_tail(cfg: RunConfig, grid) -> list[CheckReport]:
    """The stein-weiss checks that follow the per-field ones: the inner-ball
    bound in d = 1..3, on their mandated coarse grids, and the
    radial-reduction consistency."""
    reports = []
    d = cfg.d
    coarse_n = {1: 256, 2: 32, 3: 16}.get(d)
    if coarse_n is not None and d - d / cfg.q - cfg.s > 0:
        coarse = make_grid(d, coarse_n, cfg.L)
        for label, g in corpus_mod.corpus_fields(
            coarse, cfg.corpus_size, cfg.seed, s=cfg.s, q=cfg.q
        ):
            reports += _labelled([inner_ball_bound_check(g, cfg.s, cfg.q)], label)
    # radial reduction consistency on a smooth profile
    radii = geometric_radii(grid)
    profile = RadialProfile(radii, np.exp(-(radii**2) / 2.0))
    s_red = min(cfg.s, d - 1e-6) if cfg.s > 0 else 0.5
    direct = inner_ball_potential_radial(profile, s_red, d, form="direct")
    subst = inner_ball_potential_radial(profile, s_red, d, form="substituted")
    mask = direct.values > 1e-12 * direct.values.max()
    rel = float(
        np.max(np.abs(direct.values[mask] - subst.values[mask]) / direct.values[mask])
    )
    reports.append(
        CheckReport(
            identity="radial-reduction",
            d=d,
            n=cfg.n,
            L=cfg.L,
            s=s_red,
            q=cfg.q,
            lhs=rel,
            rhs=0.005,
            tolerance=0.005,
            passed=rel <= 0.005,
        )
    )
    return reports


def cmd_verify(cfg: RunConfig) -> int:
    """Run a verification suite."""
    if cfg.suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {cfg.suite!r}")
    runs = {suite for suite in SUITES if cfg.suite in (suite, "all")}
    reports = _schur_suite(cfg) if "schur" in runs else []
    if runs & {"hardy", "stein-weiss", "chain"}:
        # one grid, corpus and partition for every suite; the partition only
        # when a suite that uses it has fields, so a grid too coarse for one
        # still runs the stein-weiss suite
        grid = make_grid(cfg.d, cfg.n, cfg.L)
        partition = specialization = None
        if cfg.corpus_size > 0 and runs & {"hardy", "chain"}:
            partition = build_partition(grid, cfg.coverage)
        if cfg.corpus_size > 0 and "stein-weiss" in runs:
            d, s = cfg.d, cfg.s
            params = SteinWeissParams(
                lam=d - s, p=cfg.q, q=cfg.q, alpha=0.0, beta=s, d=d
            )
            specialization = (params, riesz_constant(d, d - s))
        # each field through every suite at once, built when its turn comes
        # and freed after it; the reports keep suite order
        by_suite = {"hardy": [], "stein-weiss": [], "inner-ball": [], "chain": []}
        for label, f in corpus_mod.corpus_fields(
            grid, cfg.corpus_size, cfg.seed, s=cfg.s, q=cfg.q
        ):
            field_reports = _field_reports(cfg, runs, f, partition, specialization)
            for suite, reps in field_reports.items():
                by_suite[suite] += _labelled(reps, label)
        if specialization is not None:
            by_suite["inner-ball"] += _stein_weiss_tail(cfg, grid)
        reports += [rep for reps in by_suite.values() for rep in reps]
    _emit(reports, cfg)
    checked, passed, failed = summarize(reports)
    print(
        f"suite {cfg.suite}: {checked} checks, {passed} passed, {failed} failed",
        file=sys.stderr,
    )
    return _exit_from(reports)


# ---------------------------------------------------------------------------
# argument parsing


COMMANDS = {
    "norm": cmd_norm,
    "lp": cmd_lp,
    "hardy-check": cmd_hardy_check,
    "schur-check": cmd_schur_check,
    "stein-weiss-check": cmd_stein_weiss_check,
    "estimate-constant": cmd_estimate_constant,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}

# Each flag's argparse spec, keyed by the flag without its "--".
FLAGS = {
    "config": {"help": "JSON config file (flags override it)"},
    "d": {"type": int},
    "n": {"type": int},
    "L": {"type": float},
    "s": {"type": float},
    "q": {"type": float},
    "r": {"type": float},
    "corpus-size": {"dest": "corpus_size", "type": int},
    "seed": {"type": int},
    "tolerance": {"type": float},
    "out": {},
    "format": {"dest": "fmt", "choices": ("json", "csv")},
    "coverage": {"type": float},
    "field": {"required": True},
    "kind": {"choices": ("lq", "weighted", "sobolev", "besov", "triebel-lizorkin")},
    "identity": {"choices": tuple(IDENTITIES)},
    "lam": {"type": float},
    "alpha": {"type": float},
    "beta": {"type": float},
    "p": {"type": float},
    "budget": {"type": int},
    "axis": {"choices": ("s", "q", "n")},
    "values": {},
    "start": {"type": float},
    "stop": {"type": float},
    "step": {"type": float},
    "suite": {"choices": SUITES},
}

# The flags each command's handler reads; every command also takes --config.
# Any other flag is a usage error (exit 2).  Config-file keys are not checked
# per command.
COMMAND_FLAGS = {
    "norm": "s q r out format coverage field kind",
    "lp": "out format coverage field",
    "hardy-check": "d n L s q corpus-size seed tolerance out format coverage identity",
    "schur-check": "d n L s q corpus-size seed out format",
    "stein-weiss-check": "d n L s q corpus-size seed out format lam alpha beta p",
    "estimate-constant": "d n L s q seed out format identity budget",
    "sweep": (
        "d n L s q corpus-size seed tolerance out coverage identity axis values"
        " start stop step"
    ),
    "verify": "d n L s q corpus-size seed tolerance out format coverage suite",
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which refuses a flag it does not take itself,
    with its own usage; argparse would pass the flag up to the top-level
    parser, whose usage lists only the subcommands."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylp",
        description="Hardy-inequality verification toolkit on periodic grids",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=COMMANDS[name].__doc__)
        for flag in ("config", *flags.split()):
            spec = FLAGS[flag]
            if name == "estimate-constant" and flag == "identity":
                spec = {**spec, "choices": ESTIMATE_IDENTITIES}
            p.add_argument(f"--{flag}", **spec)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = RunConfig.from_json(fh.read())
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.command = args.command
    # a non-finite tolerance would pass every check (inf) or fail every one
    # (nan), so it is refused before any check runs
    if cfg.tolerance is not None and not np.isfinite(cfg.tolerance):
        raise ValueError(f"tolerance must be finite, got {cfg.tolerance!r}")
    if cfg.fmt not in FLAGS["format"]["choices"]:
        raise ValueError(f"unknown report format {cfg.fmt!r}")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _merge_config(args)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - last-resort internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
