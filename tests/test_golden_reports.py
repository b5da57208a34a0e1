"""Replay recorded benchmark commands and compare the report bytes.

perfbench/golden.json holds the stdout sha256 and the exit status of every
benchmark command, as printed by `python -m symblocks ARGV --format json`.
One entry per subcommand is replayed here in-process with --jobs 1 (the
recorder checks that --jobs does not change the bytes), so a refactor that
changes any report byte or exit status fails the suite.
"""

import hashlib
import json
from pathlib import Path

import pytest

from symblocks import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)

REPLAYED = (
    "verify-hook-formula --n-max 20 --primes 2,3,5,7 --jobs 2",
    "scan-blocks --group sym --n-range 5..26 --p 2",
    "scan-blocks --group alt --n-range 6..26 --p 3",
    "unipotent --n 14 --q 4 --collisions",
    "hll-check --n 12 --d 4",
    "hll-check --n 12 --d 3",
    "verify-wreath --e-max 4 --r-max 3",
    "zsigmondy --q 52 --m 15",
)


@pytest.mark.parametrize("line", REPLAYED)
def test_report_matches_golden(line, capsys):
    argv = line.split()
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    status = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[line]["sha256"]
    assert status == GOLDEN[line]["exit"]
