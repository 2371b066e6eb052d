"""Command-line front end: individual checks, verification suites, sweeps,
and constant estimation, with machine-readable reports.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one check
failed, 2 usage or configuration error, 3 internal error.  Reports go to
stdout as a JSON array (CSV with --format csv; estimate-constant prints one
JSON object and refuses CSV); --out adds them to a JSON or CSV report file
instead, and refuses a file of another kind.

Each subcommand takes --config and only the flags its handler reads
(COMMAND_FLAGS); any other flag is a usage error, exit 2.  So is a value,
set by flag or config file, outside its key's domain, which one table gives
(the choices in FLAGS, DOMAINS, FREE_KEYS); config keys are not checked per
command, and a key the command does not read is ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from collections import defaultdict
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import corpus as corpus_mod
from .extremal import ESTIMATE_IDENTITIES, estimate_constant
from .hardy import CHECKS, IDENTITIES, Check, FieldValues, fractional_hardy_quotient
from .littlewood_paley import besov_terms, build_partition, level_sums, partition_record
from .report import (
    EXACT_TOL,
    QUADRATURE_TOL,
    CheckReport,
    check_report,
    reports_to_csv,
    reports_to_json,
    summarize,
    within_bound,
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
    SUPPORTED_DIMENSIONS,
    boundary_decay,
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

MAX_SWEEP_POINTS = 10_000

SUITES = ("hardy", "schur", "stein-weiss", "chain", "all")
NORM_KINDS = ("lq", "weighted", "sobolev", "besov", "triebel-lizorkin")


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
    return EXIT_CHECK_FAILED if summarize(reports)[2] else EXIT_OK


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
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if cfg.kind == "lq":
            value = lq_norm(f, cfg.q)
        elif cfg.kind == "weighted":
            value = weighted_lq_norm(f, cfg.s, cfg.q)
        elif cfg.kind == "sobolev":
            value = sobolev_norm(f, cfg.s, cfg.q)
        else:  # besov or triebel-lizorkin
            part = build_partition(grid, cfg.coverage)
            tl = cfg.kind == "triebel-lizorkin"
            sums = level_sums(f, part, cfg.s, cfg.q, (cfg.r,) if tl else ())
            value = sums.triebel_lizorkin(cfg.r) if tl else sums.besov(cfg.r)
            extra = {
                "last_level": part.n_max,
                "last_level_contribution": float(sums.norms[-1]),
            }
    if not np.isfinite([value, *extra.values()]).all():
        raise ValueError(
            f"the {cfg.kind} norm leaves the float range at s = {cfg.s:g}, q = {cfg.q:g}"
        )
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


def cmd_hardy_check(cfg: RunConfig) -> int:
    """Hardy quotients over a corpus."""
    reports = _field_reports(cfg, CHECKS[cfg.identity], warn=True)
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

    def mean_free_check(values: FieldValues, tol: float) -> CheckReport:
        f = values.f
        return stein_weiss_check(f.with_values(f.values - np.mean(f.values)), params)

    reports = _field_reports(replace(cfg, s=beta), Check(mean_free_check))
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
    elif cfg.start is not None and cfg.stop is not None and cfg.step is not None:
        stop = cfg.stop + np.copysign(1e-12, cfg.step)  # the stop kept, either way
        count = np.ceil((stop - cfg.start) / cfg.step)  # arange's length
        if count <= 0:
            raise ValueError("empty sweep range")
        if count > MAX_SWEEP_POINTS:
            raise ValueError(
                f"sweep range has {count:g} points, more than {MAX_SWEEP_POINTS}"
            )
        vals = list(np.arange(cfg.start, stop, cfg.step))
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
    reports = []
    for v in vals:
        value = int(round(v)) if cfg.axis == "n" else float(v)
        point = replace(cfg, **{cfg.axis: value})
        reports += _field_reports(point, CHECKS[cfg.identity])
    _emit(reports, replace(cfg, fmt="csv"))
    return _exit_from(reports)


# ---------------------------------------------------------------------------
# verification suites


def _schur_suite(cfg: RunConfig) -> list[CheckReport]:
    """The Schur row sums, conditions and bound.  They read no field, but
    their reports name the grid of cfg, which make_grid checks first."""
    grid = make_grid(cfg.d, cfg.n, cfg.L)
    s, q = cfg.s, cfg.q
    sum_n, sum_r, closed = hardy_row_sums(s, grid.d, q)
    a1, a2 = schur_conditions(hardy_kernel(s, grid.d, q), q)
    reports = [
        check_report(
            "schur-row-sum", grid, s, q, sum_n, closed, tolerance=ROW_SUM_TOL,
            passed=abs(sum_n - closed) <= ROW_SUM_TOL and sum_n == sum_r,
            extra={"sum_over_shells": sum_r},
        ),
        # a1 against a2, which is no quotient
        CheckReport(
            identity="schur-conditions", d=grid.d, n=grid.n, L=grid.L, s=s, q=q,
            lhs=a1, rhs=a2, bound_constant=a1 * a2, passed=np.isfinite(a1 * a2),
        ),
    ]
    rng = np.random.default_rng(cfg.seed)
    levels = dyadic_levels(8)
    small = hardy_kernel(s, grid.d, q, levels)
    trials = max(cfg.corpus_size * 5, 20)
    worst = 0.0
    for _ in range(trials):
        c = {N: float(v) for N, v in zip(levels, rng.random(len(levels)))}
        _, _, ratio = schur_bound_check(small, c, q)
        worst = max(worst, ratio)
    reports.append(check_report(
        "schur-bound", grid, s, q, worst, 1.0, tolerance=EXACT_TOL,
        passed=within_bound(worst, 1.0, 1.0, EXACT_TOL), extra={"trials": trials},
    ))
    return reports


def _corpus_reports(cfg: RunConfig, plan, warn: bool) -> dict:
    """The checks of plan, (suite, Check, applies(d, s, q)) in run order, on
    every corpus field, as {suite: reports}; warn flags fields that do not
    decay at the box faces.  Each field gets one FieldValues that serves the
    union of what the checks read, released before the next field is built.
    The partition is built only when a check reads the level pass and the
    corpus has fields, so a grid too coarse for one runs the other checks.
    """
    d, s, q = cfg.d, cfg.s, cfg.q
    checks = [(suite, check) for suite, check, applies in plan if applies(d, s, q)]
    grid = make_grid(d, cfg.n, cfg.L)
    partition = None
    if cfg.corpus_size > 0 and any(check.levels for _, check in checks):
        partition = build_partition(grid, cfg.coverage)
    powers = dict.fromkeys(r for _, check in checks for r in check.powers(q))
    shells = any(check.shells for _, check in checks)
    tol = cfg.tolerance if cfg.tolerance is not None else QUADRATURE_TOL
    reports = defaultdict(list)
    for label, f in corpus_mod.corpus_fields(grid, cfg.corpus_size, cfg.seed, s=s, q=q):
        if warn:
            _check_decay(f, label)
        values = FieldValues(f, s, q, partition, powers, shells)
        for suite, check in checks:
            rep = check.run(values, tol)
            if rep is not None:
                rep.extra["field"] = label
                reports[suite].append(rep)
        values = f = None  # both freed before the next field is built
    return reports


def _field_reports(cfg: RunConfig, check: Check, warn: bool = False) -> list:
    """The reports of check on every corpus field of cfg."""
    return _corpus_reports(cfg, (("", check, lambda d, s, q: True),), warn)[""]


def _homogeneous_fractional(values: FieldValues, tol: float) -> CheckReport:
    """The fractional quotient of f, asserted homogeneous: the quotient of
    3.5 f must match it to EXACT_TOL."""
    frac = fractional_hardy_quotient(values)
    scaled = fractional_hardy_quotient(values.mapped(lambda v: 3.5 * v))
    if frac.quotient is not None and scaled.quotient is not None:
        drift = abs(scaled.quotient - frac.quotient) / max(frac.quotient, 1e-300)
        frac.passed = drift <= EXACT_TOL
        frac.tolerance = EXACT_TOL
        frac.extra["homogeneity_drift"] = drift
    return frac


def _specialization(values: FieldValues, tol: float) -> CheckReport | None:
    """Stein-Weiss at alpha = 0, beta = s, lam = d - s on |D|^s f against c
    times the fractional Hardy quotient of f - mean, or None when either
    quotient is vacuous.  |D|^s f and its L^q norm are the same for f and
    f - mean, as |2 pi xi|^s vanishes at xi = 0.  An even f gives both on its
    octant: f - mean, and the Riesz potential of |D|^s f by one DCT pair."""
    grid, s, q = values.grid, values.s, values.q
    d = grid.d
    mean_free = values.mapped(lambda v: v - np.mean(v))
    mean_free.sobolev = values.sobolev
    base = fractional_hardy_quotient(mean_free)
    params = SteinWeissParams(lam=d - s, p=q, q=q, alpha=0.0, beta=s, d=d)
    if values._octant is None:
        sw = stein_weiss_check(values.lifted, params)
    else:
        sw = stein_weiss_check(grid, params, values._lift)
    if not (base.quotient and sw.quotient):
        return None
    c = riesz_constant(d, d - s)
    rep = check_report(
        "stein-weiss-specialization", grid, s, q, sw.quotient, c * base.quotient,
        tolerance=0.02, extra={"riesz_constant": c},
    )
    rep.passed = abs(rep.quotient - 1.0) <= 0.02
    return rep


# The inner-ball bound of the stein-weiss suite, on verify's grid in d = 4
# and on a coarse grid of its own in d = 1..3 (_stein_weiss_tail).
INNER_BALL = Check(lambda v, tol: inner_ball_bound_check(v.f, v.s, v.q))

# The per-field checks of verify in run order, as (suite, Check, applies(d,
# s, q)); the inner-ball bound is the stein-weiss suite's, reported after
# its specialization.  Every reader of |D|^s f runs before the level pass,
# which drops it.  An even field's checks read its octant alone
# (FieldValues), all but the inner-ball bound, which verify runs in d = 4.
# The runs look the check functions up by module-global name when they
# run, so a wrapper installed on this module's bindings sees each call.
VERIFY_CHECKS = (
    ("hardy", CHECKS["classical"], lambda d, s, q: d >= 3),
    ("hardy", CHECKS["gradient"], lambda d, s, q: q < d),
    ("hardy", Check(_homogeneous_fractional), lambda d, s, q: True),
    ("stein-weiss", Check(_specialization), lambda d, s, q: True),
    ("inner-ball", INNER_BALL, lambda d, s, q: d == 4 and d - d / q - s > 0),
    ("hardy", CHECKS["besov"], lambda d, s, q: True),
    ("hardy", CHECKS["refined"], lambda d, s, q: q > 2),
    ("chain", CHECKS["chain"], lambda d, s, q: True),
    ("chain", CHECKS["holder-refinement"], lambda d, s, q: q > 2),
)


def _stein_weiss_tail(cfg: RunConfig) -> list[CheckReport]:
    """The stein-weiss checks that follow the per-field ones: the inner-ball
    bound in d = 1..3, on their mandated coarse grids, and the
    radial-reduction consistency."""
    reports = []
    d = cfg.d
    coarse_n = {1: 256, 2: 32, 3: 16}.get(d)
    if coarse_n is not None and d - d / cfg.q - cfg.s > 0:
        reports += _field_reports(replace(cfg, n=coarse_n), INNER_BALL)
    # radial reduction consistency on a smooth profile, of width L / 20 so
    # that it scales with the radii
    radii = geometric_radii(make_grid(d, cfg.n, cfg.L))
    width = cfg.L / 20.0
    profile = RadialProfile(radii, np.exp(-(radii**2) / (2.0 * width**2)))
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
    runs = {suite for suite in SUITES if cfg.suite in (suite, "all")}
    if "stein-weiss" in runs:
        runs.add("inner-ball")
    reports = _schur_suite(cfg) if "schur" in runs else []
    if runs & {"hardy", "stein-weiss", "chain"}:
        # one grid, corpus and partition for every suite, each field through
        # every suite at once; the reports keep suite order
        plan = [entry for entry in VERIFY_CHECKS if entry[0] in runs]
        by_suite = _corpus_reports(cfg, plan, warn=False)
        if "stein-weiss" in runs and cfg.corpus_size > 0:
            by_suite["inner-ball"] += _stein_weiss_tail(cfg)
        for suite in ("hardy", "stein-weiss", "inner-ball", "chain"):
            reports += by_suite[suite]
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

# Each flag's argparse spec, keyed by the flag without its "--".  A flag with
# choices names what it chooses in its help.
FLAGS = {
    "config": {"help": "JSON config file (flags override it)"},
    "d": {"type": int, "choices": SUPPORTED_DIMENSIONS, "help": "dimension"},
    "n": {"type": int},
    "L": {"type": float},
    "s": {"type": float},
    "q": {"type": float},
    "r": {"type": float},
    "corpus-size": {"dest": "corpus_size", "type": int},
    "seed": {"type": int},
    "tolerance": {"type": float},
    "out": {},
    "format": {"dest": "fmt", "choices": ("json", "csv"), "help": "report format"},
    "coverage": {"type": float},
    "field": {"required": True},
    "kind": {"choices": NORM_KINDS, "help": "norm kind"},
    "identity": {"choices": IDENTITIES, "help": "hardy identity"},
    "lam": {"type": float},
    "alpha": {"type": float},
    "beta": {"type": float},
    "p": {"type": float},
    "budget": {"type": int},
    "axis": {"choices": ("s", "q", "n"), "help": "sweep axis"},
    "values": {},
    "start": {"type": float},
    "stop": {"type": float},
    "step": {"type": float},
    "suite": {"choices": SUITES, "help": "verification suite"},
}

# The domain of each config key, checked before any command runs: its flag's
# choices, else its DOMAINS test with the words refusing a value outside it,
# else, for a float, finiteness; NaN, which passes a range test, is refused
# in every key.  FREE_KEYS take any value, or are refused by what reads them
# (n, L, budget).  A rule across keys, such as s < d/q, stays with the check
# it guards.
DOMAINS = {
    "q": (lambda v: v > 0, "q must be > 0 or inf"),
    "r": (lambda v: v >= 1, "r must be >= 1 or inf"),
    "p": (lambda v: 0 < v < np.inf, "p must be finite and > 0"),
    "corpus_size": (lambda v: v >= 0, "corpus size must be >= 0"),
    "seed": (lambda v: v >= 0, "seed must be >= 0"),
    "step": (lambda v: v != 0 and np.isfinite(v), "step must be finite and nonzero"),
    # bounds scale by 1 + tolerance: inf passes every check, <= -1 fails all
    "tolerance": (lambda v: -1 < v < np.inf, "tolerance must be finite and > -1"),
}
FREE_KEYS = ("command", "out", "field", "values", "n", "L", "budget")

# The flags each command's handler reads; every command also takes --config.
# Any other flag is a usage error (exit 2).  Config-file keys are checked
# against their domains, but not per command.
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
    for flag, spec in FLAGS.items():
        key = spec.get("dest", flag.replace("-", "_"))
        value = getattr(cfg, key, None)  # None for config, which is no key
        if key in FREE_KEYS or value is None:
            continue
        if "choices" in spec:
            if value not in spec["choices"]:
                raise ValueError(f"unknown {spec['help']} {value!r}")
        elif value != value:  # NaN
            raise ValueError(f"{key} must be finite, got {value!r}")
        else:
            test, words = DOMAINS.get(key, (np.isfinite, f"{key} must be finite"))
            if not test(value):
                raise ValueError(f"{words}, got {value!r}")
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
