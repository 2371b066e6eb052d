"""The dyadic Schur test: conditions, explicit bound, and the Hardy kernel."""

import numpy as np
import pytest

from hardylp import schur
from hardylp.hardy import shell_radii
from hardylp.littlewood_paley import build_partition
from hardylp.schur import (
    ROW_SUM_MAX_SPAN,
    ROW_SUM_TOL,
    SchurKernel,
    dyadic_levels,
    hardy_kernel,
    hardy_kernel_entry,
    hardy_row_sum_closed_form,
    hardy_row_sums,
    schur_bound_check,
    schur_conditions,
)
from hardylp.spectral_core import make_grid

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
    return SchurKernel(np.eye(len(levels)), levels)


# --- conditions ----------------------------------------------------------------


def test_diagonal_kernel_conditions():
    levels = dyadic_levels(4)
    a1, a2 = schur_conditions(identity_kernel(levels), 2.0)
    assert a1 == 1.0
    assert a2 == 1.0
    assert a1 * a2 == 1.0


def test_zero_kernel_conditions():
    levels = dyadic_levels(4)
    kern = SchurKernel(np.zeros((len(levels), len(levels))), levels)
    a1, a2 = schur_conditions(kern, 3.0)
    assert a1 == 0.0 and a2 == 0.0


def test_conditions_reject_bad_exponent():
    kern = identity_kernel(dyadic_levels(2))
    for q in (1.0, 0.5):
        with pytest.raises(ValueError):
            schur_conditions(kern, q)


def test_conditions_reject_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        schur_conditions(SchurKernel(-np.ones((2, 2)), (1.0, 2.0)), 2.0)


def test_kernel_refuses_a_row_count_other_than_its_levels():
    for entries in (np.ones((3, 2)), np.ones(2), np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match=r"one entry row per level \(2\)"):
            SchurKernel(entries, (1.0, 2.0))


def test_kernel_entries_are_a_read_only_copy():
    a = np.eye(2)
    kern = SchurKernel(a, [1.0, 2.0])
    a[0, 0] = 5.0
    assert kern.entries[0, 0] == 1.0 and kern.levels == (1.0, 2.0)
    with pytest.raises(ValueError, match="read-only"):
        kern.entries[0, 0] = 2.0


def test_unit_weights_reduce_to_row_and_column_sums():
    # with p = 1 the conditions are exactly (max column sum)^(q/q') and the
    # max row sum
    levels = dyadic_levels(6)
    s, d, q = 1.0, 3, 2.0
    kern = hardy_kernel(s, d, q, levels)
    a1, a2 = schur_conditions(kern, q)
    a = kern.entries
    col = a.sum(axis=0).max()
    row = a.sum(axis=1).max()
    assert a1 == pytest.approx(col ** (q / (q / (q - 1))), rel=1e-14)
    assert a2 == pytest.approx(row, rel=1e-14)


def test_hardy_conditions_wide_range_match_closed_form():
    # on a wide truncated range the second condition is the full row sum
    _, a2 = schur_conditions(hardy_kernel(1.0, 3, 2.0, dyadic_levels(64)), 2.0)
    assert a2 == pytest.approx(4.41421, abs=1e-5)
    # the default +-20 octave range is within its geometric tail of it
    _, a2_default = schur_conditions(hardy_kernel(1.0, 3, 2.0), 2.0)
    assert a2_default == pytest.approx(4.4142, abs=1e-3)


def test_rectangular_kernel_conditions():
    rows = dyadic_levels(3)
    cols = dyadic_levels(2, base=0.5)
    kern = hardy_kernel(0.5, 2, 2.0, rows, cols)
    a1, a2 = schur_conditions(kern, 2.0)
    a = kern.entries
    assert a.shape == (len(rows), len(cols))
    assert a1 == pytest.approx(a.sum(axis=0).max(), rel=1e-14)
    assert a2 == pytest.approx(a.sum(axis=1).max(), rel=1e-14)


def _chain_index_sets(n):
    """The row levels and shell radii of the chain check's link (c)."""
    grid = make_grid(3, n, 20.0)
    return build_partition(grid).levels, shell_radii(grid)


# the spans hardy_row_sums takes at d = 3, q = 2 near the ends of 0 < s < 1.5
ROW_SUM_SPANS = ((0.05, 894), (0.06, 741), (1.45, 894))


@pytest.mark.parametrize(
    "s,d,q,rows,cols",
    [
        (0.5, 3, 3.0, *_chain_index_sets(32)),
        (0.3, 3, 2.5, *_chain_index_sets(64)),
        (1.2, 2, 1.5, dyadic_levels(3), dyadic_levels(5, base=0.75)),
        # the products 2^k of hardy_row_sums at its widest spans, as rows
        # (the sum over N) and as columns (the sum over R)
        *[(s, 3, 2.0, dyadic_levels(span), (1.0,)) for s, span in ROW_SUM_SPANS],
        *[(s, 3, 2.0, (1.0,), dyadic_levels(span)) for s, span in ROW_SUM_SPANS],
    ],
    ids=["chain-n32", "chain-n64", "shifted",
         *[f"{axis}-{s}" for axis in ("over-n", "over-r") for s, _ in ROW_SUM_SPANS]],
)
def test_kernel_entries_are_the_scalar_entry_bitwise(s, d, q, rows, cols):
    a = hardy_kernel(s, d, q, rows, cols).entries
    assert a.shape == (len(rows), len(cols))
    want = [[hardy_kernel_entry(N, R, s, d, q) for R in cols] for N in rows]
    assert a.tolist() == want
    assert np.isfinite(a).all()


def test_the_entries_are_evaluated_once_per_kernel(monkeypatch):
    calls = []
    entry = schur.hardy_kernel_entry
    monkeypatch.setattr(
        schur, "hardy_kernel_entry", lambda *args: calls.append(args) or entry(*args)
    )
    rows, cols = dyadic_levels(4), dyadic_levels(2, base=0.5)
    kern = hardy_kernel(0.6, 3, 2.0, rows, cols)
    assert len(calls) == len(rows) * len(cols)
    calls.clear()
    schur_conditions(kern, 2.0)
    schur_bound_check(kern, dict.fromkeys(rows, 1.0), 2.0)
    assert calls == []


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


def test_closed_form_refuses_a_denominator_that_rounds_to_0():
    # 1 - 2^-s rounds to 0 below s = 1.1e-16, and 1 - 2^-(d/q - s) as s
    # comes within an ulp of a small d/q; these raised ZeroDivisionError
    with pytest.raises(ValueError, match="rounds to 0"):
        hardy_row_sum_closed_form(1e-17, 3, 2.0)
    with pytest.raises(ValueError, match="rounds to 0"):
        hardy_row_sum_closed_form(float(np.nextafter(0.01, 0.0)), 1, 100.0)


def test_row_sums_refuse_nan():
    with pytest.raises(ValueError, match="need 0 < s < d/q"):
        hardy_row_sum_closed_form(float("nan"), 3, 2.0)


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


def test_kernel_entry_is_the_min_of_both_powers():
    # bitwise: only the smaller power is taken, the branch picked by t >= 1
    rng = np.random.default_rng(11)
    for s, d, q in [(0.5, 3, 3.0), (1.0, 3, 2.0), (0.05, 3, 2.0), (1.45, 3, 2.0)]:
        for t in np.concatenate([2.0 ** np.arange(-60, 61), rng.uniform(0.01, 100.0, 200)]):
            want = min(t ** (-s), t ** (d / q - s))
            assert hardy_kernel_entry(float(t), 1.0, s, d, q) == want


@pytest.mark.parametrize("s", [0.05, 0.06, 1.45])
def test_row_sums_near_the_ends_within_the_float_span(s):
    # spans 741 to 894: each product 2^k is a normal float, and the larger
    # power, which overflowed at (2^-894)^-1.45, is never taken
    sum_n, sum_r, closed = hardy_row_sums(s, 3, 2.0)
    assert abs(sum_n - closed) <= ROW_SUM_TOL
    assert sum_n == sum_r


@pytest.mark.parametrize(
    "s,d,q,span",
    [(0.04, 3, 2.0, 1126), (1.48, 3, 2.0, 2302), (1e-12, 2, 1e10, 80255113388191)],
)
def test_row_sums_past_the_float_span_are_refused(s, d, q, span):
    # 2^k left the float range: these raised ZeroDivisionError, or would have
    # summed for 1e13 terms
    with pytest.raises(ValueError, match=f"truncation span of {span} dyadic levels"):
        hardy_row_sums(s, d, q)


def test_row_sums_past_the_float_span_are_refused_at_any_s():
    # 2^-s rounds to 1 below s = 1e-16, so the closed form would divide by
    # zero; a span given past the float range is refused as well
    for s in (1e-17, 1e-300):
        with pytest.raises(ValueError, match="truncation span of"):
            hardy_row_sums(s, 3, 2.0)
    with pytest.raises(ValueError, match=f"past the {ROW_SUM_MAX_SPAN}"):
        hardy_row_sums(0.5, 3, 2.0, span=ROW_SUM_MAX_SPAN + 1)
