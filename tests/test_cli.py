"""CLI subcommands, exit codes, config round-trip, and report determinism."""

import argparse
import json

import numpy as np
import pytest

from hardylp.cli import RunConfig, _build_parser, main
from hardylp.corpus import random_band_limited_field
from hardylp.extremal import ESTIMATE_IDENTITIES
from hardylp.hardy import IDENTITIES
from hardylp.report import CheckReport, reports_to_json
from hardylp.spectral_core import make_field, make_grid, write_field


@pytest.fixture()
def const_field_file(tmp_path):
    grid = make_grid(1, 64, 1.0)
    path = tmp_path / "const.hlf"
    write_field(path, make_field(grid, np.full(64, 3.0)))
    return path


@pytest.fixture()
def band_field_file(tmp_path):
    grid = make_grid(2, 64, 20.0)
    path = tmp_path / "band.hlf"
    write_field(path, random_band_limited_field(grid, 9))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes ---------------------------------------------------------------


def test_usage_error_is_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_missing_field_file_is_exit_2(capsys):
    code, _, err = run(capsys, "norm", "--field", "/does/not/exist.hlf")
    assert code == 2


def test_inadmissible_parameters_exit_2(capsys, band_field_file):
    code, _, err = run(
        capsys, "hardy-check", "--identity", "refined", "--d", "2", "--n", "32",
        "--s", "0.4", "--q", "2",
    )
    assert code == 2
    assert "fractional_hardy_quotient" in err


def test_verify_all_exit_0(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "all", "--d", "3", "--n", "32",
        "--corpus-size", "3", "--seed", "2",
    )
    assert code == 0
    assert "failed" in err
    reports = json.loads(out)
    assert reports and all("identity" in r for r in reports)


def test_verify_d1_slow_schur_decay_exit_0(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--d", "1", "--n", "256", "--q", "3",
        "--s", "0.2", "--corpus-size", "3",
    )
    assert code == 0
    row = [r for r in json.loads(out) if r["identity"] == "schur-row-sum"]
    assert len(row) == 1 and row[0]["passed"]


def test_verify_honours_tolerance(capsys):
    argv = ("verify", "--suite", "hardy", "--d", "3", "--n", "32", "--corpus-size", "2")
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, "--tolerance", "-0.9")
    assert code == 1
    checked = [r for r in json.loads(out) if r.get("tolerance") == -0.9]
    assert {r["identity"] for r in checked} == {"classical", "gradient"}
    assert not any(r["passed"] for r in checked)


def test_verify_empty_corpus_vacuous_pass(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "hardy", "--corpus-size", "0",
    )
    assert code == 0
    assert json.loads(out) == []
    assert "0 checks" in err


# --- norm command -----------------------------------------------------------------


def test_norm_lq_constant_field(capsys, const_field_file):
    code, out, _ = run(
        capsys, "norm", "--field", str(const_field_file), "--kind", "lq", "--q", "2",
    )
    assert code == 0
    value = json.loads(out)[0]["lhs"]
    assert value == pytest.approx(3.0, rel=1e-12)  # |c| * L^(d/q) with L = 1


def test_norm_sobolev_zero_order_equals_lq(capsys, band_field_file):
    code_a, out_a, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--kind", "sobolev",
        "--s", "0", "--q", "2",
    )
    code_b, out_b, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--kind", "lq", "--q", "2",
    )
    assert code_a == code_b == 0
    va = json.loads(out_a)[0]["lhs"]
    vb = json.loads(out_b)[0]["lhs"]
    assert va == pytest.approx(vb, rel=1e-12)


def test_norm_besov_reports_tail(capsys, band_field_file):
    code, out, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--kind", "besov",
        "--s", "0.5", "--q", "2", "--r", "2",
    )
    assert code == 0
    report = json.loads(out)[0]
    assert "last_level_contribution" in report["extra"]


def test_norm_kind_from_config(capsys, tmp_path, band_field_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kind": "weighted", "s": 0.5, "q": 2}')
    code, out, _ = run(
        capsys, "norm", "--field", str(band_field_file), "--config", str(cfg)
    )
    assert code == 0
    assert json.loads(out)[0]["identity"] == "norm-weighted"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_norm_rejects_non_finite_samples(capsys, tmp_path, bad):
    vals = np.full(64, 3.0)
    vals[5] = bad
    path = tmp_path / "bad.hlf"
    write_field(path, make_field(make_grid(1, 64, 1.0), vals))
    code, out, err = run(capsys, "norm", "--field", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_reports_json_refuses_non_finite_values():
    rep = CheckReport(identity="norm-lq", d=1, n=64, L=1.0, lhs=float("nan"))
    with pytest.raises(ValueError):
        reports_to_json([rep])


def test_lp_command_prints_partition_record(capsys, band_field_file):
    code, out, _ = run(capsys, "lp", "--field", str(band_field_file))
    assert code == 0
    assert json.loads(out)[0]["extra"]["partition"]["profile"] == "bump-telescope-v1"


# --- check commands -----------------------------------------------------------------


def test_hardy_check_classical(capsys):
    code, out, _ = run(
        capsys, "hardy-check", "--identity", "classical", "--d", "3", "--n", "32",
        "--corpus-size", "3",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)


def test_schur_check(capsys):
    code, out, _ = run(capsys, "schur-check", "--s", "1", "--d", "3", "--q", "2")
    assert code == 0
    reports = json.loads(out)
    kinds = {r["identity"] for r in reports}
    assert "schur-row-sum" in kinds and "schur-bound" in kinds


def test_stein_weiss_check_defaults(capsys):
    code, out, _ = run(
        capsys, "stein-weiss-check", "--d", "2", "--n", "32", "--s", "0.5",
        "--q", "2", "--corpus-size", "2",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["identity"] == "stein-weiss" for r in reports)


def test_estimate_constant_builds_partition_only_when_needed(capsys):
    # the fractional quotient uses no dyadic partition, so a grid too coarse
    # for one still runs
    code, out, err = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "2",
        "--n", "16", "--s", "0.5", "--budget", "3",
    )
    assert code == 0, err
    assert [t["n"] for t in json.loads(out)["trend"]] == [16, 32]


def test_estimate_constant_rejects_csv_format(capsys):
    code, out, err = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "2",
        "--n", "16", "--s", "0.5", "--budget", "3", "--format", "csv",
    )
    assert code == 2
    assert out == ""
    assert "JSON only" in err


def test_estimate_constant_command(capsys):
    code, out, _ = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "3",
        "--s", "1", "--q", "2", "--budget", "3", "--n", "32",
    )
    assert code == 0
    est = json.loads(out)
    assert est["identity"] == "fractional"
    assert [t["n"] for t in est["trend"]] == [32, 64]


# --- sweep ------------------------------------------------------------------------


def test_sweep_csv_shape(capsys):
    code, out, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "s",
        "--values", "0.2,0.4,0.6", "--d", "2", "--n", "32", "--q", "2",
        "--corpus-size", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,d,n,L,s,q,lhs,rhs,quotient,pass"
    assert len(lines) == 1 + 3 * 2
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[0] == "fractional"
        assert np.isfinite(float(cells[8]))


def test_sweep_refinement_stability(capsys):
    # the gaussian-family quotients move by < 5% across n in {32, 64, 128}
    code, out, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "n",
        "--values", "32,64,128", "--d", "2", "--s", "0.4", "--q", "2",
        "--corpus-size", "2", "--seed", "5",
    )
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    by_n = {}
    for cells in rows:
        by_n.setdefault(int(cells[2]), []).append(float(cells[8]))
    for idx in range(2):
        values = [by_n[n][idx] for n in (32, 64, 128)]
        spread = (max(values) - min(values)) / max(values)
        assert spread < 0.05, values


def test_sweep_empty_range_exit_2(capsys):
    code, _, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "s", "--values", "",
    )
    assert code == 2


def test_sweep_single_point_matches_hardy_check(capsys):
    code, out_sweep, _ = run(
        capsys, "sweep", "--identity", "fractional", "--axis", "s",
        "--values", "0.4", "--d", "2", "--n", "32", "--q", "2",
        "--corpus-size", "2", "--seed", "5",
    )
    assert code == 0
    code, out_check, _ = run(
        capsys, "hardy-check", "--identity", "fractional", "--d", "2", "--n", "32",
        "--s", "0.4", "--q", "2", "--corpus-size", "2", "--seed", "5",
        "--format", "csv",
    )
    assert code == 0
    assert out_sweep == out_check


# d=3, q=2.5, s=0.5 admits every identity in the table
@pytest.mark.parametrize(
    "identity,extra,code",
    [pytest.param(name, (), 0, id=name) for name in IDENTITIES]
    + [pytest.param("classical", ("--tolerance", "-0.9"), 1, id="tolerance")],
)
def test_sweep_matches_hardy_check_for_each_identity(capsys, identity, extra, code):
    common = (
        "--identity", identity, "--d", "3", "--n", "32", "--q", "2.5",
        "--corpus-size", "2", "--seed", "5", *extra,
    )
    code_sweep, out_sweep, _ = run(
        capsys, "sweep", "--axis", "s", "--values", "0.5", *common
    )
    code_check, out_check, _ = run(
        capsys, "hardy-check", "--s", "0.5", "--format", "csv", *common
    )
    assert code_sweep == code_check == code
    assert out_sweep == out_check


def _identity_choices(command):
    parser = _build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    sub = subparsers.choices[command]
    return tuple(next(a.choices for a in sub._actions if a.dest == "identity"))


def test_identity_choices_come_from_the_table():
    assert _identity_choices("hardy-check") == tuple(IDENTITIES)
    assert _identity_choices("sweep") == tuple(IDENTITIES)
    assert _identity_choices("estimate-constant") == ESTIMATE_IDENTITIES


# --- report shape ---------------------------------------------------------------------


def test_chain_suite_report_keys(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "chain", "--d", "2", "--n", "32", "--s", "0.4",
        "--q", "3", "--corpus-size", "1",
    )
    assert code == 0
    chain, holder = json.loads(out)
    assert chain["identity"] == "chain"
    assert set(chain) == {
        "L", "d", "extra", "identity", "lhs", "links", "n", "passed", "q",
        "quotient", "rhs", "s",
    }
    assert set(chain["extra"]) == {
        "field", "localization_constant", "schur_a1", "schur_a2", "shell_factor",
        "worst_pair",
    }
    assert [link["name"] for link in chain["links"]] == [
        "shell-majorant", "shell-localization", "schur-bound",
    ]
    for link in chain["links"]:
        assert set(link) == {"lhs", "name", "passed", "ratio", "rhs"}
    assert holder["identity"] == "holder-refinement"
    assert set(holder) == {
        "L", "d", "extra", "identity", "lhs", "n", "passed", "q", "quotient",
        "rhs", "s", "tolerance",
    }
    assert set(holder["extra"]) == {"field", "mid"}


# --- config and determinism -----------------------------------------------------------


def test_config_round_trip():
    cfg = RunConfig(command="verify", d=2, n=64, s=0.7, q=3.0, seed=11)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_json('{"bogus": 1}')


@pytest.mark.parametrize(
    "text", ['{"n": "32"}', '{"corpus_size": 2.5}', '{"seed": true}']
)
def test_config_value_of_wrong_type_exit_2(capsys, tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, "hardy-check", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "config error" in err


def test_config_int_accepted_for_float_field():
    cfg = RunConfig.from_json('{"L": 20, "tolerance": null}')
    assert cfg.L == 20.0 and isinstance(cfg.L, float)
    assert cfg.tolerance is None


def test_config_identity_reaches_hardy_check(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"identity": "classical", "d": 3, "corpus_size": 1}')
    code, out, _ = run(capsys, "hardy-check", "--config", str(path))
    assert code == 0
    assert [r["identity"] for r in json.loads(out)] == ["classical"]


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = RunConfig(command="schur-check", d=3, s=1.0, q=2.0)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    code, out, _ = run(capsys, "schur-check", "--config", str(path), "--s", "0.5")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["s"] == 0.5


def test_verify_deterministic_byte_identical(capsys):
    args = (
        "verify", "--suite", "all", "--d", "2", "--n", "32", "--s", "0.4",
        "--corpus-size", "3", "--seed", "7",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_internal_error_exit_3(capsys, monkeypatch):
    import hardylp.cli as cli

    def boom(cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "schur-check", boom)
    code, _, err = run(capsys, "schur-check", "--s", "1", "--d", "3", "--q", "2")
    assert code == 3
    assert "internal error" in err


def test_out_file_appends(capsys, tmp_path):
    out_path = tmp_path / "reports.json"
    args = (
        "schur-check", "--s", "1", "--d", "3", "--q", "2", "--out", str(out_path),
    )
    assert main(list(args)) == 0
    first = json.loads(out_path.read_text())
    assert main(list(args)) == 0
    second = json.loads(out_path.read_text())
    assert len(second) == 2 * len(first)


OUT_COMMANDS = {
    "schur-check": ("schur-check", "--s", "1", "--d", "3", "--q", "2"),
    "estimate-constant": (
        "estimate-constant", "--identity", "fractional", "--d", "3", "--s", "1",
        "--q", "2", "--budget", "1", "--n", "16",
    ),
}


@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_out_refuses_non_json_file(capsys, tmp_path, command):
    target = tmp_path / "notes.txt"
    target.write_text("my notes\n")
    code, _, err = run(capsys, *OUT_COMMANDS[command], "--out", str(target))
    assert code == 2
    assert "refusing" in err
    assert target.read_text() == "my notes\n"
    assert list(tmp_path.iterdir()) == [target]  # no temporary file left


def test_out_that_cannot_be_opened_is_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, *OUT_COMMANDS["schur-check"], "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "internal error" not in err


def test_out_refuses_json_that_is_not_a_report_array(capsys, tmp_path):
    target = tmp_path / "estimate.json"
    target.write_text('{"best": 1.0}\n')
    code, _, err = run(capsys, *OUT_COMMANDS["schur-check"], "--out", str(target))
    assert code == 2
    assert target.read_text() == '{"best": 1.0}\n'


def test_estimate_out_replaces_json_file(capsys, tmp_path):
    target = tmp_path / "estimate.json"
    target.write_text("[1, 2]\n")
    code, out, _ = run(capsys, *OUT_COMMANDS["estimate-constant"], "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)
    assert list(tmp_path.iterdir()) == [target]


def test_estimate_constant_refuses_oversized_trend_grid(capsys, monkeypatch):
    # n = 256 is allowed in d = 3, its 2n trend grid is not; the refusal
    # comes before the first trial field is built
    import hardylp.extremal as extremal

    def no_trial(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(extremal, "_trial_field", no_trial)
    code, out, err = run(
        capsys, "estimate-constant", "--identity", "fractional", "--d", "3",
        "--n", "256", "--s", "1", "--budget", "3",
    )
    assert code == 2
    assert out == ""
    assert "134217728 samples" in err


def test_unknown_field_file_code_is_exit_2(capsys, const_field_file):
    raw = bytearray(const_field_file.read_bytes())
    raw[28] = 9  # the HLF2 dtype byte
    const_field_file.write_bytes(bytes(raw))
    code, out, err = run(capsys, "norm", "--field", str(const_field_file))
    assert code == 2
    assert out == ""
    assert "unknown field dtype code 9" in err
