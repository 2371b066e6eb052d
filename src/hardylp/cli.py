"""Command-line front end: individual checks, verification suites, sweeps,
and constant estimation, with machine-readable reports.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one check
failed, 2 usage or configuration error, 3 internal error.  Reports go to
stdout as a JSON array (CSV with --format csv; estimate-constant prints one
JSON object and refuses CSV); --out adds them to a JSON report file instead,
and refuses a file that does not hold JSON.
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
)
from .littlewood_paley import (
    _besov_norm,
    _triebel_lizorkin_norm,
    _weighted_stack,
    besov_terms,
    build_partition,
    partition_record,
)
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
    _lq,
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
    epsilon: float = 0.2

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
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


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _check_decay(f, label: str) -> None:
    worst = boundary_decay(f)
    if worst > DECAY_THRESHOLD:
        _warn(
            f"{label}: boundary samples reach {worst:.2e} > {DECAY_THRESHOLD:g}; "
            "the periodic box is a poor proxy for this field"
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
        with open(cfg.out, "a") as fh:
            fh.write(reports_to_csv(reports))
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
        stack = _weighted_stack(f, part, cfg.s)
        norm = _besov_norm if cfg.kind == "besov" else _triebel_lizorkin_norm
        value = norm(f, stack, cfg.q, cfg.r)
        extra = {
            "last_level": part.n_max,
            "last_level_contribution": _lq(stack[-1], grid.h**grid.d, cfg.q),
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


def _hardy_corpus(cfg: RunConfig):
    grid = make_grid(cfg.d, cfg.n, cfg.L)
    return grid, corpus_mod.standard_corpus(
        grid, cfg.corpus_size, cfg.seed, s=cfg.s, q=cfg.q
    )


def _hardy_reports(cfg: RunConfig, warn: bool) -> list[CheckReport]:
    """cfg.identity's quotient on every corpus field; warn flags fields that
    do not decay at the box faces."""
    if cfg.identity not in IDENTITIES:
        raise ValueError(f"unknown hardy identity {cfg.identity!r}")
    needs_partition, quotient = IDENTITIES[cfg.identity]
    grid, fields_ = _hardy_corpus(cfg)
    partition = build_partition(grid, cfg.coverage) if needs_partition else None
    tol = cfg.tolerance if cfg.tolerance is not None else QUADRATURE_TOL
    reports = []
    for label, f in fields_:
        if warn:
            _check_decay(f, label)
        rep = quotient(f, cfg.s, cfg.q, partition, tol)
        rep.extra["field"] = label
        reports.append(rep)
    return reports


def cmd_hardy_check(cfg: RunConfig) -> int:
    reports = _hardy_reports(cfg, warn=True)
    _emit(reports, cfg)
    return _exit_from(reports)


def cmd_schur_check(cfg: RunConfig) -> int:
    reports = _schur_suite(cfg)
    _emit(reports, cfg)
    return _exit_from(reports)


def cmd_stein_weiss_check(cfg: RunConfig) -> int:
    lam = cfg.lam if cfg.lam is not None else cfg.d - cfg.s
    beta = cfg.beta if cfg.beta is not None else cfg.s
    p = cfg.p if cfg.p is not None else cfg.q
    params = SteinWeissParams(
        lam=lam, p=p, q=cfg.q, alpha=cfg.alpha, beta=beta, d=cfg.d
    )
    params.require()
    grid = make_grid(cfg.d, cfg.n, cfg.L)
    fields_ = corpus_mod.standard_corpus(grid, cfg.corpus_size, cfg.seed, s=beta, q=cfg.q)
    reports = []
    for label, f in fields_:
        f0 = f.with_values(f.values - np.mean(f.values))
        rep = stein_weiss_check(f0, params)
        rep.extra["field"] = label
        reports.append(rep)
    _emit(reports, cfg)
    return _exit_from(reports)


def cmd_estimate_constant(cfg: RunConfig) -> int:
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
    return vals


def cmd_sweep(cfg: RunConfig) -> int:
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


def _hardy_suite(cfg: RunConfig) -> list[CheckReport]:
    grid, fields_ = _hardy_corpus(cfg)
    if not fields_:
        return []
    partition = build_partition(grid, cfg.coverage)
    tol = cfg.tolerance if cfg.tolerance is not None else QUADRATURE_TOL
    reports = []
    for label, f in fields_:
        field_reports = []
        if cfg.d >= 3:
            field_reports.append(classical_hardy_quotient(f, tol))
        if cfg.q < cfg.d:
            field_reports.append(gradient_hardy_quotient(f, cfg.q, tol=tol))
        frac = fractional_hardy_quotient(f, cfg.s, cfg.q)
        scaled = fractional_hardy_quotient(f.with_values(3.5 * f.values), cfg.s, cfg.q)
        if frac.quotient is not None and scaled.quotient is not None:
            drift = abs(scaled.quotient - frac.quotient) / max(frac.quotient, 1e-300)
            frac.passed = drift <= EXACT_TOL
            frac.tolerance = EXACT_TOL
            frac.extra["homogeneity_drift"] = drift
        field_reports += [frac, besov_hardy_quotient(f, cfg.s, cfg.q, partition)]
        if cfg.q > 2:
            field_reports.append(refined_hardy_quotient(f, cfg.s, cfg.q, partition))
        reports += _labelled(field_reports, label)
    return reports


def _stein_weiss_suite(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    d = cfg.d
    grid = make_grid(d, cfg.n, cfg.L)
    fields_ = corpus_mod.standard_corpus(grid, cfg.corpus_size, cfg.seed, s=cfg.s, q=cfg.q)
    if not fields_:
        return []
    params = SteinWeissParams(
        lam=d - cfg.s, p=cfg.q, q=cfg.q, alpha=0.0, beta=cfg.s, d=d
    )
    c = riesz_constant(d, d - cfg.s)
    for label, g in fields_:
        g0 = g.with_values(g.values - np.mean(g.values))
        base = fractional_hardy_quotient(g0, cfg.s, cfg.q)
        lifted = fractional_laplacian(g0, cfg.s)
        sw = stein_weiss_check(lifted, params)
        if base.quotient and sw.quotient:
            ratio = sw.quotient / (c * base.quotient)
            rep = CheckReport(
                identity="stein-weiss-specialization",
                d=d,
                n=cfg.n,
                L=cfg.L,
                s=cfg.s,
                q=cfg.q,
                lhs=sw.quotient,
                rhs=c * base.quotient,
                quotient=ratio,
                tolerance=0.02,
                passed=abs(ratio - 1.0) <= 0.02,
                extra={"field": label, "riesz_constant": c},
            )
            reports.append(rep)
    # inner-ball operator bound on its mandated coarse grid
    coarse_n = {1: 256, 2: 32, 3: 16}.get(d)
    if coarse_n is not None and d - d / cfg.q - cfg.s > 0:
        coarse = make_grid(d, coarse_n, cfg.L)
        coarse_fields = corpus_mod.standard_corpus(
            coarse, cfg.corpus_size, cfg.seed, s=cfg.s, q=cfg.q
        )
        for label, g in coarse_fields:
            rep = inner_ball_bound_check(g, cfg.s, cfg.q)
            rep.extra["field"] = label
            reports.append(rep)
    # radial reduction consistency on a smooth profile
    radii = geometric_radii(make_grid(d, cfg.n, cfg.L))
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


def _chain_suite(cfg: RunConfig) -> list[CheckReport]:
    grid, fields_ = _hardy_corpus(cfg)
    if not fields_:
        return []
    partition = build_partition(grid, cfg.coverage)
    reports = []
    for label, f in fields_:
        field_reports = [shell_chain_check(f, cfg.s, cfg.q, partition)]
        if cfg.q > 2:
            field_reports.append(holder_refinement_check(f, cfg.s, cfg.q, partition))
        reports += _labelled(field_reports, label)
    return reports


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {cfg.suite!r}")
    reports = []
    if cfg.suite in ("schur", "all"):
        reports += _schur_suite(cfg)
    if cfg.suite in ("hardy", "all"):
        reports += _hardy_suite(cfg)
    if cfg.suite in ("stein-weiss", "all"):
        reports += _stein_weiss_suite(cfg)
    if cfg.suite in ("chain", "all"):
        reports += _chain_suite(cfg)
    _emit(reports, cfg)
    checked, passed, failed = summarize(reports)
    print(
        f"suite {cfg.suite}: {checked} checks, {passed} passed, {failed} failed",
        file=sys.stderr,
    )
    return _exit_from(reports)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylp",
        description="Hardy-inequality verification toolkit on periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--d", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--L", type=float)
        p.add_argument("--s", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--corpus-size", dest="corpus_size", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--tolerance", type=float)
        p.add_argument("--out")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        p.add_argument("--coverage", type=float)

    p = sub.add_parser("norm", help="evaluate one norm of a stored field")
    common(p)
    p.add_argument("--field", required=True)
    p.add_argument(
        "--kind",
        choices=("lq", "weighted", "sobolev", "besov", "triebel-lizorkin"),
    )

    p = sub.add_parser("lp", help="dyadic decomposition of a stored field")
    common(p)
    p.add_argument("--field", required=True)

    p = sub.add_parser("hardy-check", help="Hardy quotients over a corpus")
    common(p)
    p.add_argument("--identity", choices=tuple(IDENTITIES))

    p = sub.add_parser("schur-check", help="Schur test row sums and bounds")
    common(p)

    p = sub.add_parser("stein-weiss-check", help="two-weight inequality quotients")
    common(p)
    p.add_argument("--lam", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--p", type=float)

    p = sub.add_parser("estimate-constant", help="maximize a quotient over trials")
    common(p)
    p.add_argument("--identity", choices=ESTIMATE_IDENTITIES)
    p.add_argument("--budget", type=int)

    p = sub.add_parser("sweep", help="parameter sweep, CSV output")
    common(p)
    p.add_argument("--identity", choices=tuple(IDENTITIES))
    p.add_argument("--axis", choices=("s", "q", "n"))
    p.add_argument("--values")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=SUITES)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            cfg = RunConfig.from_json(fh.read())
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.command = args.command
    return cfg


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
