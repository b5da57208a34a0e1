import argparse
import json
import os
import stat
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symblocks import blocks, cli
from symblocks.algebra import ExactnessError
from symblocks.blocks import ClassificationError

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
    for command in ("scan-blocks", "verify-hook-formula", "verify-wreath",
                    "unipotent", "hll-check", "speceq", "tori", "zsigmondy"):
        assert command in r.stdout
    for note in ("_build_parser", "set_defaults", "_render"):
        assert note not in r.stdout


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
        ["zsigmondy", "--q", "1", "--m", "3"],
        ["zsigmondy", "--q", "x", "--m", "3"],
        ["zsigmondy", "--q", "2", "--m", "0"],
        # 2**89 - 1 is a prime above the Miller-Rabin bound, which is_prime
        # refuses to prove
        ["scan-blocks", "--group", "sym", "--n-range", "1..3",
         "--p", "618970019642690137449562111"],
        ["tori", "--series", "A", "--n", "2", "--q", "618970019642690137449562111"],
        ["unipotent", "--n", "3", "--q", str(618970019642690137449562111**2)],
    ],
)
def test_invalid_values_are_usage_errors(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-blocks", "--group", "sym", "--n-range", "2..3", "--p", "4"],
        ["scan-blocks", "--group", "alt", "--n-range", "1..5", "--p", "3"],
        ["verify-hook-formula", "--n-max", "3", "--primes", "2,4"],
        ["verify-hook-formula", "--n-max", "3", "--primes", "2,618970019642690137449562111"],
        ["hll-check", "--n", "3", "--d", "5"],
        ["hll-check", "--n", "0", "--d", "1"],
        ["unipotent", "--n", "0"],
        ["speceq", "--q-max", "1", "--m-max", "2", "--exp-bound", "1"],
        ["tori", "--series", "E6", "--n", "5", "--q", "2"],
        # a repeated prime would list every row and exception twice
        ["verify-hook-formula", "--n-max", "4", "--primes", "2,2"],
    ],
)
def test_bounds_are_checked_at_the_boundary(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "exc",
    [
        ExactnessError("inexact"),
        ArithmeticError("pole"),
        ClassificationError("no case"),
        ZeroDivisionError("division by zero"),
        ValueError("a library bound was missed"),
    ],
)
def test_internal_errors_exit_3(exc, monkeypatch, capsys):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_zsigmondy", fail)
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize(
    "handler, argv, inexact",
    [
        ("_cmd_zsigmondy", ["zsigmondy", "--q", "2", "--m", "3"], 0.5),
        ("_cmd_unipotent", ["unipotent", "--n", "3"], Fraction(1, 3)),
    ],
)
def test_an_inexact_number_in_a_record_exits_3(
    handler, argv, inexact, fmt, monkeypatch, tmp_path, capsys
):
    real = getattr(cli, handler)

    def with_inexact(args):
        report = real(args)
        report["records"][0]["value"] = inexact
        return report

    monkeypatch.setattr(cli, handler, with_inexact)
    argv = argv + ["--format", fmt]
    expected = (
        f"internal error: TypeError: Object of type {type(inexact).__name__} "
        "is not JSON serializable\n"
    )
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", expected)
    target = tmp_path / f"report.{fmt}"
    assert cli.main(argv + ["--out", str(target)]) == 3
    assert capsys.readouterr() == ("", expected)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_a_record_left_in_a_report_exits_3(fmt, monkeypatch, capsys):
    # records are tuple subclasses; the writer must not pass one off as a list
    real = cli._cmd_scan_blocks

    def with_record(args):
        report = real(args)
        report["records"][0]["members"][0] = blocks.Member((1,), 1, 0)
        return report

    monkeypatch.setattr(cli, "_cmd_scan_blocks", with_record)
    argv = ["scan-blocks", "--group", "sym", "--n-range", "1..1", "--p", "2",
            "--format", fmt]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: TypeError: Object of type Member is not JSON serializable\n"


# report-shaped values: every type the JSON writer takes, and strings that
# need escapes (quotes, backslashes, control, non-ASCII, astral, a lone
# surrogate)
_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\té中\U0001f600\ud800'))
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    _TEXT,
)
_REPORT_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(_TEXT, children),
    ),
    max_leaves=40,
)
_JSON = argparse.Namespace(format="json")


@settings(max_examples=300, deadline=None)
@given(value=_REPORT_VALUES)
@example(value={})
@example(value=[])
@example(value={"a": {}, "b": [], "c": (), "d": [[], {}]})
@example(value={"t": True, "f": False, "n": None, "big": 2**70, "neg": -(2**70)})
@example(value={"range": (2, 26), "s": '"\\\x01é\U0001f600'})
def test_json_writer_matches_json_dumps(value):
    assert cli._render(value, _JSON) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value", [0.5, float("nan"), Fraction(1, 2), {1: "a"}, {"a": {1}}, [b"x"]]
)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._render({"records": [value]}, _JSON)


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {target}:")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_empty_out_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SYMBLOCKS_OUT_DIR", raising=False)
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_out_write_keeps_the_existing_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.txt"
    target.write_text("previous report\n")

    def fail(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", fail)
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3", "--out", str(target)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write --out {target}: Permission denied\n"
    )
    assert target.read_text() == "previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_out_writes_through_a_device(capsys):
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_writes_through_a_symlink_and_keeps_the_mode(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("previous report\n")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3", "--out", str(link)]) == 0
    assert link.is_symlink()
    written = target.read_text()
    assert cli.main(["zsigmondy", "--q", "2", "--m", "3", "--out", str(target)]) == 0
    assert target.read_text() == written != "previous report\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "report.txt"]


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_are_capped_by_keys_and_cpus(monkeypatch, capsys):
    forks = []
    real = os.fork

    def counting():
        forks.append(None)
        return real()

    argv = ["verify-hook-formula", "--n-max", "4", "--primes", "2,3"]
    argv += ["--format", "json"]
    assert cli.main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(os, "fork", counting)
    _two_cpus(monkeypatch)
    assert cli.main(argv + ["--jobs", "64"]) == 0
    assert capsys.readouterr().out == serial
    # two workers: the parent computes one share and forks one child
    assert len(forks) == 1
    # one key leaves nothing to share out: nothing is forked
    one_key = ["verify-wreath", "--e-max", "1", "--r-max", "1", "--jobs", "64"]
    assert cli.main(one_key) == 0
    assert len(forks) == 1
    _no_child_left()


# with --primes 2,3 and two workers the parent's share holds the p = 2 keys
# and the forked child's share the p = 3 keys
_TWO_SHARES = ["verify-hook-formula", "--n-max", "4", "--primes", "2,3"]


def test_the_first_failing_key_is_raised_whichever_share_holds_it(monkeypatch, capsys):
    real = cli._hook_worker

    def failing(key):
        # key (2, 3) falls to the child and comes before (3, 2), the parent's
        if key in ((2, 3), (3, 2)):
            raise ExactnessError(f"no exact quotient at {key}")
        return real(key)

    monkeypatch.setattr(cli, "_hook_worker", failing)
    _two_cpus(monkeypatch)
    assert cli.main(_TWO_SHARES + ["--jobs", "1"]) == 3
    serial = capsys.readouterr()
    assert serial.err == "internal error: ExactnessError: no exact quotient at (2, 3)\n"
    assert cli.main(_TWO_SHARES + ["--jobs", "2"]) == 3
    assert capsys.readouterr() == serial
    _no_child_left()


def test_a_child_that_dies_is_an_internal_error(monkeypatch, capsys):
    real = cli._hook_worker

    def dying(key):
        if key[1] == 3:
            os._exit(9)
        return real(key)

    monkeypatch.setattr(cli, "_hook_worker", dying)
    _two_cpus(monkeypatch)
    assert cli.main(_TWO_SHARES + ["--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal error: RuntimeError: worker ")
    assert lines[0].endswith(f"ended without its results (wait status {9 << 8})")
    _no_child_left()


def test_an_interrupted_parent_kills_its_children(monkeypatch):
    def interrupted(key):
        if key[1] == 3:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_hook_worker", interrupted)
    _two_cpus(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(_TWO_SHARES + ["--jobs", "2"])
    assert time.monotonic() - start < 10
    _no_child_left()


def test_no_run_imports_a_process_pool():
    probe = (
        "import sys, symblocks.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    r = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert r.stdout == "False\n"
    argv = ["verify-hook-formula", "--n-max", "4", "--primes", "2,3", "--jobs", "2"]
    r = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv],
        capture_output=True, text=True, check=True,
    )
    modules = set(r.stderr.split())
    assert "symblocks.blocks" in modules
    assert modules.isdisjoint(["concurrent.futures", "multiprocessing"])


# what a fresh process has loaded once cli.main has run one subcommand
_LOADED_AFTER_MAIN = """
import sys
from symblocks import cli
cli.main(sys.argv[1:])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def bare_modules():
    """What the bare interpreter on this host has loaded before any import."""
    r = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, check=True,
    )
    return set(r.stdout.split())


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (["zsigmondy", "--q", "2", "--m", "6"], ["symblocks.algebra"],
         ["symblocks.blocks", "symblocks.partitions", "symblocks.wreath",
          "symblocks.unipotent"]),
        (["hll-check", "--n", "6", "--d", "2"], ["symblocks.unipotent"],
         ["symblocks.blocks"]),
        (["scan-blocks", "--group", "sym", "--n-range", "1..4", "--p", "2"],
         ["symblocks.blocks"], ["symblocks.unipotent"]),
        (["verify-hook-formula", "--n-max", "4", "--primes", "2,3"],
         ["symblocks.blocks"], ["symblocks.unipotent"]),
        (["verify-wreath", "--e-max", "2", "--r-max", "2"], ["symblocks.wreath"],
         ["symblocks.blocks", "symblocks.unipotent"]),
        (["unipotent", "--n", "4", "--q", "2"], ["symblocks.unipotent"],
         ["symblocks.blocks"]),
        (["speceq", "--q-max", "4", "--m-max", "2", "--exp-bound", "1"],
         ["symblocks.unipotent"], ["symblocks.blocks"]),
        (["tori", "--series", "A", "--n", "2", "--q", "2"], ["symblocks.unipotent"],
         ["symblocks.blocks"]),
    ],
)
def test_a_subcommand_loads_only_the_layers_it_runs(argv, loaded, absent, bare_modules):
    r = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv],
        capture_output=True, text=True, check=True,
    )
    modules = set(r.stderr.split())
    assert set(loaded) <= modules
    # the table format renders without json or csv
    assert modules.isdisjoint(absent + ["json", "csv"])
    # records are NamedTuples: no process pays for dataclasses and inspect
    assert modules & {"dataclasses", "inspect"} <= bare_modules


_LAYERS_AT_FORK = """
import sys
from symblocks import cli
real = cli._parallel_map
def spy(fn, keys, jobs):
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
    return real(fn, keys, jobs)
cli._parallel_map = spy
cli.main(sys.argv[1:])
"""


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["scan-blocks", "--group", "alt", "--n-range", "2..5", "--p", "3"],
         "symblocks.blocks"),
        (["verify-hook-formula", "--n-max", "4", "--primes", "2,3"],
         "symblocks.blocks"),
        (["verify-wreath", "--e-max", "2", "--r-max", "2"], "symblocks.wreath"),
    ],
)
def test_a_pool_forks_with_its_layer_loaded(argv, layer):
    r = subprocess.run(
        [sys.executable, "-c", _LAYERS_AT_FORK, *argv, "--jobs", "2"],
        capture_output=True, text=True, check=True,
    )
    assert layer in r.stderr.split()


def test_alternating_classification_failure_exits_3(monkeypatch, capsys):
    def fail(n, p):
        raise ClassificationError(f"no case covers a block of A_{n} at p={p}")

    monkeypatch.setattr("symblocks.blocks.blocks_an", fail)
    argv = ["scan-blocks", "--group", "alt", "--n-range", "5..5", "--p", "3"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("internal error: ClassificationError:")


@pytest.mark.parametrize("group,p,count", [("sym", "3", 3), ("alt", "5", 2)])
def test_uncovered_blocks_are_refutations(group, p, count, monkeypatch, capsys):
    # a witness search that finds nothing leaves positive-weight blocks
    # outside the equal-degree cases uncovered
    monkeypatch.setattr(
        "symblocks.blocks._height_zero_witness", lambda block, accept: None
    )
    argv = ["scan-blocks", "--group", group, "--n-range", "5..6", "--p", p,
            "--format", "json"]
    assert cli.main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    refutations = [rec for rec in doc["records"] if rec["refutation"]]
    assert refutations == doc["refutations"]
    assert len(refutations) == doc["summary"]["refutations"] == count
    for rec in doc["records"]:
        assert rec["refutation"] == (rec["classification"] == "failure")
    for rec in refutations:
        assert rec["witness"] is None
    assert cli.main(argv + ["--ehzd-only"]) == 1
    assert json.loads(capsys.readouterr().out)["refutations"] == refutations


@pytest.mark.parametrize("group", ["sym", "alt"])
@pytest.mark.parametrize("p", ["2", "3", "5"])
def test_scanned_blocks_are_no_refutations(group, p, capsys):
    argv = ["scan-blocks", "--group", group, "--n-range", "2..14", "--p", p,
            "--format", "json"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"]
    assert not any(rec["refutation"] for rec in doc["records"])


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
    # each worker skips the n values the others get, so its level table steps
    # up over levels it never reports
    args = ("scan-blocks", "--group", "sym", "--n-range", "5..20", "--p", "2",
            "--format", "json")
    serial = run(*args, "--jobs", "1")
    parallel = run(*args, "--jobs", "3")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_scan_blocks_ehzd_filter():
    r = run("scan-blocks", "--group", "sym", "--n-range", "1..8", "--p", "2",
            "--ehzd-only", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["records"]
    for rec in doc["records"]:
        assert rec["ehzd"] or rec.get("refutation")


def test_ehzd_only_builds_records_for_the_kept_blocks_only(monkeypatch, capsys):
    built = []
    real = blocks.to_json_record

    def counting(block):
        built.append(block)
        return real(block)

    monkeypatch.setattr(blocks, "to_json_record", counting)
    argv = ["scan-blocks", "--group", "sym", "--n-range", "1..10", "--p", "2",
            "--format", "json"]
    assert cli.main(argv) == 0
    scanned = len(json.loads(capsys.readouterr().out)["records"])
    assert len(built) == scanned
    built.clear()
    assert cli.main(argv + ["--ehzd-only"]) == 0
    kept = json.loads(capsys.readouterr().out)["records"]
    assert 0 < len(built) == len(kept) < scanned


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


@pytest.mark.parametrize("cap", [1, 3, 7])
def test_verify_hook_formula_lists_the_first_exceptions_in_key_order(
    cap, monkeypatch, capsys
):
    """Each key keeps at most the cap of exception details; the summary
    still counts them all, and the listed ones are the first in key order."""
    argv = ["verify-hook-formula", "--n-max", "9", "--primes", "2,3",
            "--format", "json"]
    monkeypatch.setattr(cli, "EXCEPTION_DETAIL_CAP", 10**6)
    assert cli.main(argv) == 1
    full = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "EXCEPTION_DETAIL_CAP", cap)
    assert cli.main(argv) == 1
    capped = json.loads(capsys.readouterr().out)
    assert capped["records"] == full["records"]
    assert any(r["exceptions"] > cap for r in full["records"])
    s = capped["summary"]
    assert s["congruence_exceptions"] == full["summary"]["congruence_exceptions"]
    assert s["exceptions_listed"] == cap
    assert capped["refutations"] == full["refutations"][:cap]


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


@pytest.mark.parametrize(
    "args",
    [
        ("verify-hook-formula", "--n-max", "9", "--primes", "2,3,5"),
        ("verify-wreath", "--e-max", "3", "--r-max", "3"),
    ],
)
def test_every_jobs_count_prints_the_serial_bytes(args):
    """Three primes do not deal evenly to two workers, so each share holds
    keys of every prime; nine (e, r) keys give shares of 5 and 4, or 3 each."""
    serial = run(*args, "--format", "json", "--jobs", "1")
    assert serial.returncode in (0, 1)
    for jobs in ("2", "3"):
        shared = run(*args, "--format", "json", "--jobs", jobs)
        assert (shared.stdout, shared.returncode) == (serial.stdout, serial.returncode)


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
