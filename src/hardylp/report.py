"""Verification records and their JSON / CSV projections.

A CheckReport is one verification event: which inequality, the parameters,
both sides, the quotient, and whether the check passed at its tolerance.
Reports serialize deterministically (sorted keys, fixed layout) so identical
runs produce byte-identical output.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

__all__ = [
    "CheckReport",
    "check_report",
    "within_bound",
    "QUADRATURE_TOL",
    "EXACT_TOL",
    "reports_to_json",
    "reports_to_csv",
    "summarize",
]

# Default tolerance classes: quadrature-backed inequalities, and algebraic /
# pointwise steps that hold to rounding.
QUADRATURE_TOL = 0.03
EXACT_TOL = 1e-12


def _plain(obj):
    """Recursively coerce numpy scalars/arrays into JSON-friendly types."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool,)):
        return obj
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    return obj


@dataclass
class CheckReport:
    """One verification record.

    quotient is None when the right-hand side vanishes; passed is None for
    pure measurements (no asserted bound), True/False for checks, and a
    vacuous zero-against-zero check reports passed=True with vacuous=True.
    An infinite exponent q (the max norm) is written as the string "inf",
    which strict JSON can hold.
    """

    identity: str
    d: int
    n: int
    L: float
    s: float | None = None
    q: float | None = None
    lhs: float = 0.0
    rhs: float = 0.0
    quotient: float | None = None
    bound_constant: float | None = None
    passed: bool | None = None
    tolerance: float | None = None
    vacuous: bool = False
    links: list | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "d": int(self.d),
            "n": int(self.n),
            "L": float(self.L),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
        }
        for key in ("s", "q", "quotient", "bound_constant", "tolerance"):
            val = getattr(self, key)
            if val is not None:
                out[key] = float(val)
        if self.q == float("inf"):
            out["q"] = "inf"
        if self.passed is not None:
            out["passed"] = bool(self.passed)
        if self.vacuous:
            out["vacuous"] = True
        if self.links is not None:
            out["links"] = _plain(self.links)
        if self.extra:
            out["extra"] = _plain(self.extra)
        return out


def check_report(identity, grid, s, q, lhs, rhs, **fields) -> CheckReport:
    """The report of lhs against rhs on grid, by the one quotient rule:
    quotient = lhs / rhs when rhs > 0, and vacuous (0 against 0) when
    rhs <= 0 and lhs == 0.  fields sets the rest: bound_constant,
    tolerance, passed, extra."""
    return CheckReport(
        identity=identity, d=grid.d, n=grid.n, L=grid.L, s=s, q=q, lhs=lhs, rhs=rhs,
        quotient=lhs / rhs if rhs > 0 else None,
        vacuous=bool(rhs <= 0 and lhs == 0),
        **fields,
    )


def within_bound(lhs, rhs, bound, tol) -> bool:
    """The one upper-bound verdict: lhs <= bound * rhs * (1 + tol), or 0
    against 0."""
    return lhs <= bound * rhs * (1.0 + tol) or (lhs == 0.0 and rhs == 0.0)


def reports_to_json(reports) -> str:
    """Canonical JSON array of reports (deterministic byte layout); a NaN or
    infinite value raises ValueError instead of printing a non-JSON token."""
    return json.dumps(
        [r.to_dict() for r in reports],
        sort_keys=True,
        indent=2,
        separators=(",", ": "),
        allow_nan=False,
    )


CSV_HEADER = "identity,d,n,L,s,q,lhs,rhs,quotient,pass"


def reports_to_csv(reports) -> str:
    """Flat CSV projection of reports for plotting."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in reports:
        cells = [
            r.identity,
            str(r.d),
            str(r.n),
            repr(float(r.L)),
            "" if r.s is None else repr(float(r.s)),
            "" if r.q is None else repr(float(r.q)),
            repr(float(r.lhs)),
            repr(float(r.rhs)),
            "" if r.quotient is None else repr(float(r.quotient)),
            "" if r.passed is None else str(bool(r.passed)).lower(),
        ]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def summarize(reports) -> tuple[int, int, int]:
    """(checked, passed, failed) counts; measurements do not count as checks."""
    checked = sum(1 for r in reports if r.passed is not None)
    passed = sum(1 for r in reports if r.passed is not None and bool(r.passed))
    failed = sum(1 for r in reports if r.passed is not None and not bool(r.passed))
    return checked, passed, failed
