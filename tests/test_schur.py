"""The dyadic Schur test: conditions, explicit bound, and the Hardy kernel."""

import numpy as np
import pytest

from hardylp.schur import (
    SchurKernel,
    dyadic_levels,
    hardy_kernel,
    hardy_kernel_entry,
    hardy_row_sum_closed_form,
    hardy_row_sums,
    schur_bound_check,
    schur_conditions,
)

# geometric-series closed forms, frozen from the independent truncated-sum
# oracle below (agreement to ~1e-15):
#   (s, d/q) = (1, 1.5)  -> 3 + sqrt(2)
#   (s, d/q) = (0.5, 1)  -> 3 + 2 sqrt(2)
#   (s, d/q) = (0.3,0.9)
CLOSED_FORMS = {
    (1.0, 3, 2.0): 4.414213562373096,
    (0.5, 2, 2.0): 5.828427124746192,
    (0.3, 2, 2.0 / 0.9): 7.26534926967441,
}


def truncated_sum_oracle(s, d, q, span=400):
    """Independent direct summation of min{t^-s, t^(d/q-s)} over t = 2^k."""
    total = 0.0
    for k in range(-span, span + 1):
        t = 2.0**k
        total += min(t ** (-s), t ** (d / q - s))
    return total


def identity_kernel(levels):
    return SchurKernel(
        entry=lambda a, b: 1.0 if a == b else 0.0,
        weights=lambda _: 1.0,
        levels=levels,
    )


# --- conditions ----------------------------------------------------------------


def test_diagonal_kernel_conditions():
    levels = dyadic_levels(4)
    rep = schur_conditions(identity_kernel(levels), 2.0)
    assert rep.a1 == 1.0
    assert rep.a2 == 1.0
    assert rep.bound == 1.0


def test_zero_kernel_conditions():
    levels = dyadic_levels(4)
    kern = SchurKernel(entry=lambda a, b: 0.0, weights=lambda _: 1.0, levels=levels)
    rep = schur_conditions(kern, 3.0)
    assert rep.a1 == 0.0 and rep.a2 == 0.0


def test_conditions_reject_bad_exponent():
    kern = identity_kernel(dyadic_levels(2))
    for q in (1.0, 0.5):
        with pytest.raises(ValueError):
            schur_conditions(kern, q)


def test_conditions_reject_negative_entries():
    kern = SchurKernel(entry=lambda a, b: -1.0, weights=lambda _: 1.0, levels=(1.0, 2.0))
    with pytest.raises(ValueError, match="nonnegative"):
        schur_conditions(kern, 2.0)


def test_conditions_reject_nonpositive_weights():
    kern = SchurKernel(entry=lambda a, b: 1.0, weights=lambda _: 0.0, levels=(1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        schur_conditions(kern, 2.0)


def test_unit_weights_reduce_to_row_and_column_sums():
    # with p = 1 the conditions are exactly (max column sum)^(q/q') and the
    # max row sum
    levels = dyadic_levels(6)
    s, d, q = 1.0, 3, 2.0
    kern = hardy_kernel(s, d, q, levels)
    rep = schur_conditions(kern, q)
    a = kern.entries()
    col = a.sum(axis=0).max()
    row = a.sum(axis=1).max()
    assert rep.a1 == pytest.approx(col ** (q / (q / (q - 1))), rel=1e-14)
    assert rep.a2 == pytest.approx(row, rel=1e-14)


def test_hardy_conditions_wide_range_match_closed_form():
    # on a wide truncated range the second condition is the full row sum
    rep = schur_conditions(hardy_kernel(1.0, 3, 2.0, dyadic_levels(64)), 2.0)
    assert rep.a2 == pytest.approx(4.41421, abs=1e-5)
    # the default +-20 octave range is within its geometric tail of it
    rep_default = schur_conditions(hardy_kernel(1.0, 3, 2.0), 2.0)
    assert rep_default.a2 == pytest.approx(4.4142, abs=1e-3)


def test_rectangular_kernel_conditions():
    rows = dyadic_levels(3)
    cols = dyadic_levels(2, base=0.5)
    kern = SchurKernel(
        entry=lambda a, b: hardy_kernel_entry(a, b, 0.5, 2, 2.0),
        weights=lambda _: 1.0,
        levels=rows,
        col_levels=cols,
    )
    rep = schur_conditions(kern, 2.0)
    a = kern.entries()
    assert a.shape == (len(rows), len(cols))
    assert rep.a1 == pytest.approx(a.sum(axis=0).max(), rel=1e-14)
    assert rep.a2 == pytest.approx(a.sum(axis=1).max(), rel=1e-14)


# --- bound check ----------------------------------------------------------------


def test_bound_diagonal_single_support_is_equality():
    levels = dyadic_levels(4)
    kern = identity_kernel(levels)
    coeffs = {levels[3]: 2.0}
    lhs, rhs, ratio = schur_bound_check(kern, coeffs, 2.0)
    assert lhs == rhs
    assert ratio == 1.0


def test_bound_zero_coefficients():
    kern = identity_kernel(dyadic_levels(3))
    lhs, rhs, ratio = schur_bound_check(kern, {}, 2.0)
    assert lhs == 0.0 and rhs == 0.0 and ratio == 0.0


def test_bound_rejects_negative_coefficients():
    kern = identity_kernel(dyadic_levels(2))
    with pytest.raises(ValueError):
        schur_bound_check(kern, {kern.levels[0]: -1.0}, 2.0)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_bound_holds_on_random_sequences(q):
    levels = dyadic_levels(8)
    kern = hardy_kernel(0.6, 3, 2.0, levels)
    rng = np.random.default_rng(17)
    for _ in range(200):
        c = dict(zip(levels, rng.random(len(levels))))
        lhs, rhs, ratio = schur_bound_check(kern, c, q)
        assert ratio <= 1.0, ratio


def test_bound_callable_coefficients():
    levels = dyadic_levels(5)
    kern = hardy_kernel(0.4, 2, 2.0, levels)
    lhs, rhs, ratio = schur_bound_check(kern, lambda N: 1.0 / (1.0 + N), 2.0)
    assert 0 < ratio <= 1.0


# --- hardy kernel entries ---------------------------------------------------------


def test_kernel_crossover_point():
    assert hardy_kernel_entry(1.0, 1.0, 1.0, 3, 2.0) == 1.0


def test_kernel_direct_values():
    assert hardy_kernel_entry(2.0, 2.0, 1.0, 3, 2.0) == pytest.approx(0.25, rel=1e-15)
    assert hardy_kernel_entry(0.5, 0.5, 1.0, 3, 2.0) == pytest.approx(0.5, rel=1e-15)


def test_kernel_branch_selection():
    # product >= 1 uses the decaying branch, product <= 1 the growing one
    s, d, q = 0.7, 3, 2.5
    for N, R in [(4.0, 2.0), (0.25, 1.0), (8.0, 0.5)]:
        t = N * R
        expected = t ** (-s) if t >= 1 else t ** (d / q - s)
        assert hardy_kernel_entry(N, R, s, d, q) == expected


def test_kernel_symmetric_in_product():
    s, d, q = 0.9, 3, 2.2
    pairs = [(2.0, 8.0), (8.0, 2.0), (16.0, 1.0), (1.0, 16.0)]
    vals = {hardy_kernel_entry(N, R, s, d, q) for N, R in pairs}
    assert len(vals) == 1


def test_kernel_rejects_bad_exponents():
    with pytest.raises(ValueError):
        hardy_kernel_entry(1.0, 1.0, 0.0, 3, 2.0)
    with pytest.raises(ValueError):
        hardy_kernel_entry(1.0, 1.0, 1.5, 3, 2.0)


# --- row sums -----------------------------------------------------------------------


@pytest.mark.parametrize("s,d,q", list(CLOSED_FORMS))
def test_row_sums_match_closed_form(s, d, q):
    sum_n, sum_r, closed = hardy_row_sums(s, d, q)
    frozen = CLOSED_FORMS[(s, d, q)]
    assert closed == pytest.approx(frozen, abs=1e-12)
    assert abs(sum_n - closed) < 1e-10
    assert closed == pytest.approx(truncated_sum_oracle(s, d, q), abs=1e-10)


def test_row_sums_equal_exactly():
    sum_n, sum_r, _ = hardy_row_sums(0.37, 3, 2.3)
    assert sum_n == sum_r


def test_row_sums_widen_span_for_slow_decay():
    # d/q - s = 0.133 at d = 1: span 200 leaves a tail near 1e-7
    sum_n, sum_r, closed = hardy_row_sums(0.2, 1, 3)
    assert abs(sum_n - closed) <= 1e-10
    assert sum_n == sum_r
    short, _, _ = hardy_row_sums(0.2, 1, 3, span=200)
    assert closed - short > 1e-8


def test_row_sums_diverge_at_endpoints():
    with pytest.raises(ValueError, match="diverge"):
        hardy_row_sum_closed_form(0.0, 3, 2.0)
    with pytest.raises(ValueError, match="diverge"):
        hardy_row_sum_closed_form(1.5, 3, 2.0)


def test_row_sums_grow_as_s_shrinks():
    values = [hardy_row_sum_closed_form(s, 3, 2.0) for s in (0.5, 0.25, 0.125)]
    assert values[0] < values[1] < values[2]


def test_truncated_sums_monotone_from_below():
    s, d, q = 0.8, 3, 2.0
    closed = hardy_row_sum_closed_form(s, d, q)
    prev = 0.0
    for span in (5, 10, 20, 40, 80):
        val, _, _ = hardy_row_sums(s, d, q, span=span)
        assert val >= prev
        assert val <= closed + 1e-12
        prev = val
    assert abs(prev - closed) < 1e-10
