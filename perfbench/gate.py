"""Correctness gate for one benchmark run.

Every run must exit 0 and print strict JSON (no NaN or Infinity tokens) of
the expected shape, with every asserted check passed.  At the reference seed
the values must also agree with the stored reference output, each within
its tolerance class (README: spectral 1e-10, algebraic 1e-12, quadrature
3%).  A gate function returns the list of problems; empty means passed.
"""

from __future__ import annotations

import json
from collections import Counter

SPECTRAL_TOL = 1e-10
QUADRATURE_TOL = 0.03
ESTIMATE_CAP = 2.0 * (1.0 + QUADRATURE_TOL)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_stdout(stdout: bytes, exit_code: int) -> tuple[object, list[str]]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    try:
        return strict_loads(stdout.decode("utf-8")), problems
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
        return None, problems + [f"stdout is not strict JSON: {exc}"]


def check_reports(doc, identities: Counter, checks: int) -> list[str]:
    """A JSON report array with exactly `identities` and `checks` asserted
    checks, all passed."""
    if not isinstance(doc, list) or not all(isinstance(r, dict) for r in doc):
        return ["stdout is not a JSON array of reports"]
    problems = []
    got = Counter(r.get("identity") for r in doc)
    if got != identities:
        problems.append(f"report identities {dict(got)}, expected {dict(identities)}")
    asserted = [r for r in doc if "passed" in r]
    if len(asserted) != checks:
        problems.append(f"{len(asserted)} asserted checks, expected {checks}")
    for i, r in enumerate(asserted):
        if r["passed"] is not True:
            problems.append(f"report {i} ({r.get('identity')}) has passed={r['passed']!r}")
    for r in doc:
        for link in r.get("links") or ():
            if isinstance(link, dict) and link.get("passed") is False:
                problems.append(f"{r.get('identity')} link {link.get('name')} failed")
    return problems


def check_estimate(doc, n: int) -> list[str]:
    """estimate-constant output: best within the 2 * (1 + 3%) cap, the trend
    holding n and 2n with trend[0] equal to best."""
    if not isinstance(doc, dict):
        return ["stdout is not a JSON object"]
    best = doc.get("best")
    trend = doc.get("trend")
    if not isinstance(best, (int, float)) or isinstance(best, bool):
        return [f"best is {best!r}, not a number"]
    problems = []
    if not 0.0 < best <= ESTIMATE_CAP:
        problems.append(f"best {best} outside (0, {ESTIMATE_CAP}]")
    if not isinstance(trend, list) or not all(isinstance(t, dict) for t in trend) \
            or [t.get("n") for t in trend] != [n, 2 * n]:
        return problems + [f"trend {trend!r} does not hold n={n} and n={2 * n}"]
    if trend[0].get("best") != best:
        problems.append(f"trend[0].best {trend[0].get('best')} != best {best}")
    return problems


def _close(a: float, b: float, tol: float) -> bool:
    # relative above 1, absolute below: error-like values near 0 (drifts,
    # residuals) carry no relative precision
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def compare(got, want, tol: float, path: str = "$") -> list[str]:
    """Structural equality, with floats equal within `tol`."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if isinstance(want, int) and isinstance(got, int):
            return [] if got == want else [f"{path}: {got} != {want}"]
        return [] if _close(float(got), float(want), tol) else [
            f"{path}: {got!r} differs from reference {want!r} beyond {tol:g}"
        ]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length or type differs from reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, tol, f"{path}[{i}]")]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ from reference"]
        return [p for k in sorted(want) for p in compare(got[k], want[k], tol, f"{path}.{k}")]
    raise TypeError(f"unexpected reference value at {path}: {want!r}")


def compare_reports(doc, reference) -> list[str]:
    """Each report against its reference within the report's own tolerance
    class; measurements without an asserted tolerance use the spectral
    class."""
    if not isinstance(doc, list) or len(doc) != len(reference):
        return ["report count differs from reference"]
    return [p for i, (got, want) in enumerate(zip(doc, reference))
            for p in compare(got, want, want.get("tolerance", SPECTRAL_TOL), f"$[{i}]")]


def compare_estimate(doc, reference) -> list[str]:
    """best and trend within the quadrature class.  The maximizing trial's
    numeric parameters are not compared: a rounding-level change can move
    the golden-section search to another point of nearly equal quotient."""
    problems = []
    for key in ("identity", "d", "s", "q", "budget", "best", "trend"):
        problems += compare(doc.get(key), reference[key], QUADRATURE_TOL, f"$.{key}")
    params = doc.get("params")
    family = params.get("family") if isinstance(params, dict) else None
    if family != reference["params"]["family"]:
        problems.append(f"$.params.family: {family!r} != {reference['params']['family']!r}")
    return problems
