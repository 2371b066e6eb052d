"""The representation-parity matrix: every per-field check on the three exact
representations of a field against the same field on all of its samples.

Rows: each check of hardy.CHECKS and cli.VERIFY_CHECKS, and the mean-free
Stein-Weiss check of stein-weiss-check (cli._mean_free_stein_weiss).
Columns: a radial field found even by _even_octant, the same field built
from its octant (SampledField.from_octant, as a radial trial of the constant
search is), and a band field that carries its box spectrum
(SampledField.box).  The references are the found field on the whole grid
(conftest.full_grid), which both octant columns share, and the band field's
samples with no box (conftest.without_box).

Each (column, field) gets one FieldValues that runs all of its checks in
order, as verify runs a corpus field's, and each check is a subtest that
asserts:
- its report against the reference's, float by float within 1e-13
  relative, the drift check's homogeneity_drift (itself a relative rounding
  error) within 1e-12;
- a refusal (ValueError) exactly where the reference refuses, with the same
  message; the cell is then skipped with that message as its reason;
- the transforms its representation promises: an octant cell takes no d-D
  transform, only the rfft and irfft of octant DCTs, and reflects no octant
  onto the grid (spectral_core._reflected), except a check that reads the
  field's samples (the inner-ball bound); a box cell takes no forward rfftn
  beyond one per field of new samples a check maps f to (3.5 f, f - mean).
After its checks, each FieldValues' values (||f / |x|^s||_q, || |D|^s f ||_q,
|D|^s f, and the level pass's norms, maxima, pointwise and shell sums) are
compared with the reference's within 1e-12 of their largest magnitude, and
entry by entry within 1e-12 of max(1, |entry|).

Run it alone with `python -m pytest tests/test_parity.py`.
"""

import numpy as np
import pytest
from conftest import RADIAL_TRIALS, full_grid, without_box

import hardylp.cli as cli
from hardylp.corpus import random_band_limited_field
from hardylp.extremal import _radial_profile
from hardylp.hardy import CHECKS, Check, FieldValues
from hardylp.littlewood_paley import LevelSums, build_partition
from hardylp.spectral_core import SampledField, _radial_values, make_field, make_grid
from hardylp.stein_weiss import SteinWeissParams

# The smallest grids the checks accept: a band field needs n >= 16, and a
# level pass n >= 32, for three dyadic levels
PLAIN_N, LEVELS_N = 16, 32

# The exponents per dimension, which between them reach every check that
# d admits: q = 2 for the Parseval paths, q > 2 for the refinements, and
# q < d for the gradient checks (q = 1.5 in d = 2, 2 < q < 3 in d = 3)
EXPONENTS = {1: (2.0, 3.0), 2: (1.5, 2.0, 3.0), 3: (2.0, 2.5), 4: (2.0, 3.0)}

# The checks that read the field's samples on every representation
SAMPLE_READERS = (cli.INNER_BALL,)

OCTANT_TRANSFORMS = {"rfft", "irfft"}  # an octant DCT's, one axis at a time


def _rows(d, s, q):
    """(name, Check) of every row, in verify's order and then the checks
    verify does not run, each after every check that reads no level pass,
    and the sample readers last of their group."""
    params = SteinWeissParams(lam=d - s, p=q, q=q, alpha=0.0, beta=s, d=d)
    rows = {}
    for suite, entry, _ in cli.VERIFY_CHECKS:
        name = entry.run.__name__.lstrip("_")
        rows.setdefault(entry, suite if name == "<lambda>" else name)
    for name, entry in CHECKS.items():
        rows[entry] = name
    rows[Check(lambda v, tol: cli._mean_free_stein_weiss(v, params))] = "mean_free_stein_weiss"
    order = lambda row: (row[0].levels, row[0] in SAMPLE_READERS)
    return [(name, entry) for entry, name in sorted(rows.items(), key=order)]


def _fields(grid, q):
    """(label, reference, {column: field}) for each field of the matrix: the
    constant search's two radial trials, found and built, and a band field."""
    for params in RADIAL_TRIALS:
        profile = _radial_profile(grid, q, params)
        found = make_field(grid, _radial_values(grid, profile))
        built = SampledField.from_octant(grid, _radial_values(grid, profile, True))
        yield params["family"], full_grid(found), {"found": found, "built": built}
    band = random_band_limited_field(grid, 2)
    yield "band", without_box(band), {"box": band}


def _outcome(entry, values):
    """The check's report as a dict (None when vacuous), or its refusal."""
    try:
        report = entry.run(values, 0.03)
    except ValueError as refusal:
        return refusal
    return None if report is None else report.to_dict()


def _held(f):
    """The samples f holds: its octant when it has one, else its values."""
    octant = vars(f).get("octant")
    return f.values if octant is None else octant


def _values(values):
    """What a FieldValues holds after its checks, as floats and arrays; the
    level pass's shell sums times the cell volume (an octant's is 2^d h^d)."""
    held = vars(values)
    out = {name: held[name] for name in ("weighted", "sobolev") if name in held}
    if "lifted" in held:
        out["lifted"] = _held(held["lifted"])
    sums = held.get("sums")
    if isinstance(sums, LevelSums):
        out.update(norms=sums.norms, maxima=sums.maxima)
        out.update({f"powers[{r}]": total for r, total in sums.powers.items()})
        if sums.shells is not None:
            out["shells"] = sums.shells * sums.cell_volume
    return out


def _assert_report(got, want, path=""):
    """got equals want float by float within 1e-13 relative (homogeneity_drift
    within 1e-12), anything else exactly."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_report(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        tol = 1e-12 if path.endswith("homogeneity_drift") else 1e-13 * abs(want)
        assert abs(got - want) <= tol, (path, got, want)
    else:
        assert got == want, (path, got, want)


def _assert_values(got, want):
    """got equals want within 1e-12 of want's largest magnitude and entry by
    entry within 1e-12 of max(1, |want|); an octant array against want's
    block x_i > 0."""
    assert got.keys() == want.keys()
    for key, w in want.items():
        g, w = np.asarray(got[key]), np.asarray(w)
        if g.shape != w.shape:
            w = w[(slice(w.shape[0] // 2, None),) * w.ndim]
        error = np.abs(g - w)
        assert np.max(error, initial=0.0) <= 1e-12 * np.max(np.abs(w), initial=0.0), key
        assert np.all(error <= 1e-12 * np.maximum(1.0, np.abs(w))), key


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_representation_parity(d, subtests, fft_calls, reflections, monkeypatch):
    mapped, mapped_fields = SampledField.mapped, []

    def logged(f, fn):
        mapped_fields.append(f)
        return mapped(f, fn)

    monkeypatch.setattr(SampledField, "mapped", logged)
    for q in EXPONENTS[d]:
        s = 0.4 * d / q  # inside (0, d/q), as the fractional checks need
        rows = _rows(d, s, q)
        for levels, n in ((False, PLAIN_N), (True, LEVELS_N)):
            group = [(name, entry) for name, entry in rows if entry.levels == levels]
            grid = make_grid(d, n, 20.0)
            part = build_partition(grid) if levels else None
            powers = [r for _, entry in group for r in entry.powers(q)]
            shells = any(entry.shells for _, entry in group)
            for label, reference, columns in _fields(grid, q):
                ref = FieldValues(reference, s, q, part, powers, shells)
                want = {name: _outcome(entry, ref) for name, entry in group}
                for column, f in columns.items():
                    values = FieldValues(f, s, q, part, powers, shells)
                    for name, entry in group:
                        where = dict(check=name, column=column, field=label, n=n, q=q)
                        with subtests.test(**where):
                            fft_calls.clear()
                            reflections.clear()
                            mapped_fields.clear()
                            got = _outcome(entry, values)
                            if column == "box":
                                new = sum(g is f for g in mapped_fields)
                                assert fft_calls["rfftn"] + fft_calls["fftn"] <= new
                            else:
                                assert set(fft_calls) <= OCTANT_TRANSFORMS, dict(fft_calls)
                                assert reflections == [] or entry in SAMPLE_READERS
                            if isinstance(want[name], ValueError):
                                assert isinstance(got, ValueError) and str(got) == str(want[name])
                                pytest.skip(f"{name} refuses d = {d}, s = {s:g}, q = {q:g}: "
                                            f"{want[name]}")
                            _assert_report(got, want[name], name)
                    with subtests.test(check="values", column=column, field=label, n=n, q=q):
                        _assert_values(_values(values), _values(ref))
