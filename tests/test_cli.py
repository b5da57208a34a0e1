import json
import os
import subprocess
import sys

import pytest

from symblocks import cli
from symblocks.algebra import ExactnessError
from symblocks.blocks import ClassificationError
from symblocks.wreath import SchurEvaluationError

BASE = [sys.executable, "-m", "symblocks"]


def run(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=merged
    )


def test_no_arguments_is_a_usage_error():
    r = run()
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "\n" not in r.stderr.strip()


def test_help_exits_clean():
    r = run("--help")
    assert r.returncode == 0
    assert "scan-blocks" in r.stdout


def test_bad_range_is_a_usage_error():
    r = run("scan-blocks", "--group", "sym", "--n-range", "5..2", "--p", "3")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_collisions_without_q_is_a_usage_error():
    r = run("unipotent", "--n", "4", "--collisions")
    assert r.returncode == 2
    assert "--q" in r.stderr


def test_invalid_rank_is_reported_not_raised():
    r = run("tori", "--series", "D", "--n", "3", "--q", "2")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-blocks", "--group", "sym", "--n-range", "2..3", "--p", "2", "--jobs", "0"],
        ["verify-hook-formula", "--n-max", "3", "--primes", "2", "--jobs", "-3"],
        ["verify-wreath", "--e-max", "1", "--r-max", "1", "--jobs", "0"],
        ["tori", "--series", "B/C", "--n", "2", "--q", "6"],
        ["unipotent", "--n", "3", "--q", "6"],
    ],
)
def test_invalid_values_are_usage_errors(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "exc",
    [ExactnessError("inexact"), SchurEvaluationError("pole"), ClassificationError("no case")],
)
def test_internal_errors_exit_3(exc, monkeypatch, capsys):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_zsigmondy", fail)
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_alternating_classification_failure_exits_3(monkeypatch, capsys):
    def fail(n, p):
        raise ClassificationError(f"no case covers a block of A_{n} at p={p}")

    monkeypatch.setattr(cli, "blocks_an", fail)
    argv = ["scan-blocks", "--group", "alt", "--n-range", "5..5", "--p", "3"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("internal error: ClassificationError:")


def test_scan_blocks_json_schema():
    r = run("scan-blocks", "--group", "sym", "--n-range", "3..4", "--p", "3",
            "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["command"] == "scan-blocks"
    assert doc["parameters"]["n_range"] == [3, 4]
    assert doc["refutations"] == []
    assert doc["records"]
    rec = doc["records"][0]
    for key in ("group", "n", "p", "core", "weight", "defect", "members",
                "height_zero_degrees", "ehzd", "classification", "witness"):
        assert key in rec
    member = rec["members"][0]
    assert set(member) == {"partition", "degree", "height"}
    assert isinstance(member["degree"], str)


def test_scan_blocks_byte_determinism():
    args = ("scan-blocks", "--group", "alt", "--n-range", "2..8", "--p", "3",
            "--format", "json")
    first = run(*args)
    second = run(*args)
    parallel = run(*args, "--jobs", "3")
    assert first.returncode == second.returncode == parallel.returncode == 0
    assert first.stdout == second.stdout == parallel.stdout


def test_scan_blocks_ehzd_filter():
    r = run("scan-blocks", "--group", "sym", "--n-range", "1..8", "--p", "2",
            "--ehzd-only", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["records"]
    for rec in doc["records"]:
        assert rec["ehzd"] or rec.get("refutation")


def test_scan_blocks_csv_projection():
    r = run("scan-blocks", "--group", "sym", "--n-range", "4..4", "--p", "2",
            "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == (
        "group,n,p,core,weight,defect,ehzd,classification,partition,degree,height"
    )
    # one row per member
    assert len(lines) == 6


def test_verify_hook_formula_reports_exceptions():
    r = run("verify-hook-formula", "--n-max", "5", "--primes", "2",
            "--format", "json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["summary"]["checks"] == 18
    assert doc["summary"]["equality_failures"] == 0
    assert doc["summary"]["congruence_exceptions"] == 2
    kinds = {ref["partition"] for ref in doc["refutations"]}
    assert kinds == {"[4,1]", "[2,1,1,1]"}


def test_verify_hook_formula_clean_range_passes():
    r = run("verify-hook-formula", "--n-max", "4", "--primes", "2,3",
            "--format", "table")
    assert r.returncode == 0
    assert "0 equality failures" in r.stdout


def test_verify_hook_formula_jobs_deterministic():
    args = ("verify-hook-formula", "--n-max", "7", "--primes", "2,3",
            "--format", "json")
    solo = run(*args)
    multi = run(*args, "--jobs", "3")
    assert solo.stdout == multi.stdout
    assert solo.returncode == multi.returncode == 1


def test_verify_wreath_clean():
    r = run("verify-wreath", "--e-max", "2", "--r-max", "3", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["refutations"] == []
    assert doc["summary"]["pairs"] == 6
    assert doc["summary"]["characters"] > 0
    assert doc["summary"]["mismatches"] == 0


def test_unipotent_polynomials():
    r = run("unipotent", "--n", "3", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    polys = {rec["partition"]: rec["coefficients"] for rec in doc["records"]}
    assert polys["[3]"] == ["1"]
    assert polys["[2,1]"] == ["0", "1", "1"]
    assert polys["[1,1,1]"] == ["0", "0", "0", "1"]
    assert all(rec["value_at_1"] for rec in doc["records"])


def test_unipotent_collisions():
    r = run("unipotent", "--n", "6", "--q", "2", "--collisions",
            "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["collisions"] == []
    assert all("value_at_q" in rec for rec in doc["records"])


def test_hll_check_failure_exit():
    r = run("hll-check", "--n", "5", "--d", "2", "--format", "json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["summary"]["failures"] == 2
    assert len(doc["refutations"]) == 2


def test_hll_check_csv():
    r = run("hll-check", "--n", "5", "--d", "2", "--format", "csv")
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    assert lines[0].startswith("core,")
    assert len(lines) == 8  # seven members across two series plus the header


def test_speceq_summary():
    r = run("speceq", "--q-max", "20", "--m-max", "6", "--exp-bound", "3",
            "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["records"]
    by_m = {row["m"]: row for row in doc["summary"]["by_m"]}
    assert 2 in by_m
    assert set(by_m[2]) >= {"part_a_q", "part_b_q", "part_b_full_support_q"}


def test_tori_clean_run():
    r = run("tori", "--series", "B/C", "--n", "2", "--q", "3",
            "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    rec = doc["records"][0]
    assert rec["t1_value"] == "10"
    assert rec["t2_value"] == "16"
    assert doc["refutations"] == []


def test_zsigmondy_reports_absence():
    r = run("zsigmondy", "--q", "2", "--m", "6", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["records"][0]["prime"] is None
    assert doc["summary"]["exists"] is False


def test_out_file_and_out_dir(tmp_path):
    target = tmp_path / "direct.json"
    r = run("zsigmondy", "--q", "2", "--m", "3", "--format", "json",
            "--out", str(target))
    assert r.returncode == 0
    assert r.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["records"][0]["prime"] == 7

    r = run("zsigmondy", "--q", "2", "--m", "3", "--format", "json",
            "--out", "nested.json", env={"SYMBLOCKS_OUT_DIR": str(tmp_path)})
    assert r.returncode == 0
    assert json.loads((tmp_path / "nested.json").read_text()) == doc
