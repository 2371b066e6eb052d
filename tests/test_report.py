"""The one quotient rule of report.check_report and the one upper-bound
verdict of report.within_bound."""

import math

import pytest

from hardylp.report import CheckReport, check_report, within_bound
from hardylp.spectral_core import make_grid


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, 16, 4.0)


@pytest.mark.parametrize(
    "lhs, rhs, quotient, vacuous",
    [
        (3.0, 2.0, 1.5, False),  # rhs > 0: the quotient
        (0.0, 2.0, 0.0, False),
        (0.0, 0.0, None, True),  # 0 against 0: vacuous, no quotient
        (1.0, 0.0, None, False),  # rhs == 0 < lhs: neither
    ],
)
def test_quotient_and_vacuous_rule(grid, lhs, rhs, quotient, vacuous):
    rep = check_report("fractional", grid, 0.5, 2.0, lhs, rhs)
    assert rep.quotient == quotient
    assert rep.vacuous is vacuous
    out = rep.to_dict()
    assert ("quotient" in out) is (quotient is not None)
    assert out.get("vacuous", False) is vacuous


def test_grid_fields_are_copied_and_the_rest_passes_through(grid):
    extra = {"field": "gaussian-0.075"}
    rep = check_report(
        "gradient", grid, 1.0, 3.0, 2.0, 4.0, bound_constant=3.0, tolerance=0.03,
        passed=True, extra=extra,
    )
    assert (rep.d, rep.n, rep.L) == (grid.d, grid.n, grid.L) == (2, 16, 4.0)
    assert rep.extra is extra
    assert rep == CheckReport(
        identity="gradient", d=2, n=16, L=4.0, s=1.0, q=3.0, lhs=2.0, rhs=4.0,
        quotient=0.5, bound_constant=3.0, passed=True, tolerance=0.03, extra=extra,
    )


@pytest.mark.parametrize(
    "lhs, rhs, bound, tol, passed",
    [
        (3.0, 2.0, 1.5, 0.0, True),  # lhs == bound * rhs: at the bound
        (math.nextafter(3.0, 4.0), 2.0, 1.5, 0.0, False),  # one ulp above it
        (3.0 * 1.1, 2.0, 1.5, 0.1, True),  # the tolerance widens the bound
        (0.0, 0.0, 2.0, 0.03, True),  # 0 against 0
        (0.0, 0.0, math.inf, 0.03, True),  # inf * 0 is NaN: the 0-against-0 clause
        (1e-300, 0.0, 2.0, 0.03, False),
        (0.29, 2.0, 1.5, -0.9, True),  # bound * rhs * 0.1 = 0.3, to rounding
        (0.31, 2.0, 1.5, -0.9, False),
    ],
)
def test_within_bound(lhs, rhs, bound, tol, passed):
    assert within_bound(lhs, rhs, bound, tol) is passed
