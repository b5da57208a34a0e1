"""Replay recorded benchmark commands and compare the report bytes.

perfbench/golden.json holds the stdout sha256 and the exit status of every
benchmark command, as printed by `python -m symblocks ARGV --format json`.
One entry per subcommand is replayed here in-process with --jobs 1 (the
recorder checks that --jobs does not change the bytes), so a refactor that
changes any report byte or exit status fails the suite.  The one --jobs 2
command is also run as its own process, with two workers where the host has
two CPUs.  The refutations of the three commands that exit 1 are derived
again by the oracles of `tests/oracles.py`: each listed verify-hook-formula
exception, and the exception count of each key walked to find them, from
`core_and_quotient_by_sorting`, cell-by-cell degrees and `Fraction` ratios,
and each hll-check failure from `hll_check_gl_by_stripping`, so no exit
status of 1 rests only on the path that printed it.  The same re-derivation
runs on the PARENT_RECORDED verify-hook-formula at the primes 2, 11 and 13,
whose quotients pad the abacus the most, and on every PARENT_RECORDED
hll-check JSON run that exits 1, whose series reach weights of 3 and more.
The table and CSV verify-hook-formula runs of PARENT_RECORDED have every
row's counts, and a table's summary line, counted again by the same
oracles and the per-hook product.

PARENT_RECORDED covers the paths the benchmark does not reach: hll-check at
d = 1 and d = 2 (rational roots of unity) and at d = 5 and d = 6, verify-wreath
at field orders 5 and 6 (up to rank 3) and at ranks 4 and 5 for e <= 3
(through the table renderer), every torus series, speceq, the CSV and table
renderers, and zsigmondy at m = 1 and m = 2, where no primitive prime exists
(including the exception (2, 6)), at a 58-bit prime Phi_11(53),
scan-blocks at the primes 5, 7 and 13 (the benchmark scans only p = 2 and 3),
where many blocks have weight 0 and p > n for the smallest n, the alternating
scan at p = 2 (unclassified blocks at weight >= 2, one defect zero member at
weight 1) and at p = 5, the table renderer with --ehzd-only, and
verify-hook-formula at the primes 11 and 13 (p > n for the smallest n, weight
0, and quotients with 11 and 13 components) and through the table and CSV
renderers.  Its digests were recorded from the code before the change that
each entry guards (the integer-only polynomial substrate, then integer
cyclotomic coordinates, then the congruence search for Zsigmondy primes, then
cores grown on the abacus, then one block builder for the symmetric and
alternating scans, then Schur values tallied by factor class, then the
relative hook formula from per-quotient hook tables, then one registration
per subcommand in the CLI, then degree polynomials of GL_n by sparse integer
steps), so the change is checked against the bytes it had to keep.

The degree-polynomial entries cover unipotent at n = 16, 20 and 22, past
the benchmark's n = 14, through all three renderers and at q = 2 and q = 9.
The --collisions run at n = 20 prints an empty collision list: no pair with
n <= 24 and q in {2, 3} has a degree collision (checked with
`degree_collisions`).

The cold-scan entries cover scan-blocks that start above the benchmark's
range, sym at n = 27..28 for p = 2, alt at n = 26 for p = 3 and sym at
n = 30 for p = 5, recorded before member degrees were read from the
branching-rule level table: a process that scans only these n builds its
first level from the hook walk rather than from the level below.

The Schur-tally entries cover verify-wreath at field order 7 up to rank 3,
at order 8 up to rank 2 (through the table renderer) and at order 5 up to
rank 4 (through the CSV renderer), recorded before Schur values at the roots
of unity were tallied as integers.  What these digests cannot see: a
verify-wreath report prints a Schur value only on a mismatch, and the degree
check compares |f| * e^r * r! with the wreath degree, so a wrong sign in
`schur_value`, or any wrong power of zeta that leaves the value rational,
changes no report byte.  Only the differential test against
`schur_value_by_factors` in `tests/test_wreath.py` sees those.

The last block pins every subcommand through both the table and the CSV
renderer: the symmetric scan at p = 3, the alternating scan at p = 2, the
--ehzd-only table and CSV, verify-hook-formula (exit 1), verify-wreath,
unipotent without --q, with --q and with --collisions, hll-check at d = 3
and d = 2 (both exit 1, with FAIL lines), speceq, tori with and without a
primitive prime, and zsigmondy with and without one.  The collision row of
unipotent --collisions stays unpinned: no pair with n <= 15 and q in
{2, 3, 4, 5, 7, 8, 9} has a degree collision, so the pinned run prints
"no collisions" and a bare CSV header.

The root-monomial entries cover hll-check past the pinned d <= 6 and
n <= 12: d = 8 (field degree 4) at n = 16, d = 7 (degree 6) at n = 14,
d = 10 at n = 18 and d = 4 at n = 20, through all three renderers, recorded
before the constants were evaluated by `algebra.root_monomial`.  An
hll-check report prints every constant with its sign, so unlike the
verify-wreath digests these see a wrong sign or power of zeta.

The odd-rank torus entries cover tori for A, 2A, B/C, D and 2D at n = 5
and n = 7, with q = 2 and q = 4, recorded before the torus orders were read
off lists of cyclotomic indices.  The entries above reach the classical
series only at n = 1, 4 and 8, so these are the ones that see the odd-rank
orders of 2A, B/C and D.

The per-block entries cover scan-blocks at odd p with lopsided cores,
where the runners of one core hold very different bead counts: sym at p = 3
up to n = 24 and at p = 7 up to n = 26, and the cold alternating scan at
n = 21..26 for p = 5.  They were recorded before `partitions.combine` took a
whole block, checking its core once and padding every runner by one amount
for all members, where it had padded each member on its own.

The series-order entries cover hll-check past the pinned n <= 20: d = 3 at
n = 24 (json), d = 6 at n = 22 (csv) and d = 4 at n = 21 (table), all
exiting 1.  They pin the order of the members inside series of weight 3
and more, which a report prints in enumeration order, and were recorded
before the series of GL_n were built from their d-cores, where each
partition of n had been decomposed and grouped by its core.

PARENT_RECORDED_NO_WITNESS pins the one scan path that exits 1, which no
command above reaches: with `symblocks.blocks._height_zero_witness`
patched to find no pair, every positive-weight symmetric block outside
cases (b) and (c) is a classification failure, and the --ehzd-only scan
lists it as a refutation in every format.  Its digests were recorded from
the code before the block builders classified their own blocks.
"""

import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from oracles import (
    core_and_quotient_by_sorting,
    degree_by_cells,
    enumerate_partitions_by_recursion,
    hll_check_gl_by_stripping,
    relative_hook_degree_by_symbol_hooks,
)
from symblocks import blocks, cli, partitions

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


def _replay(line, capsys):
    """Exit status and JSON stdout of a benchmark command run in process with
    --jobs 1."""
    argv = line.split()
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    status = cli.main(argv + ["--format", "json"])
    return status, capsys.readouterr().out


@pytest.mark.parametrize("line", REPLAYED)
def test_report_matches_golden(line, capsys):
    status, out = _replay(line, capsys)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[line]["sha256"]
    assert status == GOLDEN[line]["exit"]


def _congruence_by_oracles(pi, p: int) -> tuple[Fraction, int | None, int]:
    """The ratio degree(pi)/degree(core), its residue mod p (None when p
    divides its denominator) and the wreath degree of the quotient mod p,
    from the oracles alone."""
    core, quotient, w = core_and_quotient_by_sorting(pi, p)
    ratio = Fraction(degree_by_cells(pi), degree_by_cells(core))
    wreath = factorial(w) * prod(map(degree_by_cells, quotient))
    wreath //= prod(factorial(sum(nu)) for nu in quotient)
    lhs = None
    if ratio.denominator % p:
        lhs = ratio.numerator * pow(ratio.denominator, -1, p) % p
    return ratio, lhs, wreath % p


def _congruence_exception(n: int, p: int, pi) -> dict | None:
    """The hook-formula exception record of pi at p, or None when the
    congruence holds, from the oracles alone."""
    ratio, lhs, rhs = _congruence_by_oracles(pi, p)
    if lhs is not None and lhs in (rhs, -rhs % p):
        return None
    partition = json.dumps(list(pi), separators=(",", ":"))
    return {"n": n, "p": p, "partition": partition, "ratio": str(ratio),
            "lhs": lhs, "rhs": rhs}


def _recorded_sha256(line: str) -> str:
    """The digest recorded for a command: its golden.json entry, or else its
    PARENT_RECORDED one.  A line that names no format is the JSON run."""
    if line in GOLDEN:
        return GOLDEN[line]["sha256"]
    if "--format" not in line:
        line += " --format json"
    [sha256] = [h for entry, h, _ in PARENT_RECORDED if entry == line]
    return sha256


@pytest.mark.parametrize(
    "line",
    [REPLAYED[0], "verify-hook-formula --n-max 22 --primes 2,11,13 --jobs 1"],
)
def test_hook_formula_refutations_are_found_again_by_the_oracles(line, capsys):
    """Each congruence exception that an exit-1 recorded report lists is
    derived again, in key order, from the core and quotient of
    `core_and_quotient_by_sorting` and cell-by-cell hook products, and so
    is the exception count of every key walked on the way.  The primes 11
    and 13 pad the abacus the most."""
    status, out = _replay(line, capsys)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _recorded_sha256(line)
    report = json.loads(out)
    listed = report["refutations"]
    assert status == 1 and report["summary"]["equality_failures"] == 0
    assert len(listed) == report["summary"]["exceptions_listed"] > 0
    found = []
    counts = {}
    for n in range(1, report["parameters"]["n_max"] + 1):
        if len(found) >= len(listed):
            break
        for p in report["parameters"]["primes"]:
            counts[n, p] = 0
            for pi in enumerate_partitions_by_recursion(n):
                exception = _congruence_exception(n, p, pi)
                if exception is not None:
                    found.append(exception)
                    counts[n, p] += 1
    assert found[: len(listed)] == listed
    assert {
        (r["n"], r["p"]): r["exceptions"]
        for r in report["records"] if (r["n"], r["p"]) in counts
    } == counts


def _hook_row_by_oracles(n: int, p: int) -> dict:
    """The verify-hook-formula record of (n, p), counted from the oracles:
    the per-hook product against cell-by-cell degrees, and the congruence of
    `_congruence_by_oracles`."""
    row = {"n": n, "p": p, "partitions": 0, "equality_failures": 0,
           "plus": 0, "minus": 0, "exceptions": 0}
    for pi in enumerate_partitions_by_recursion(n):
        row["partitions"] += 1
        if relative_hook_degree_by_symbol_hooks(pi, p) != degree_by_cells(pi):
            row["equality_failures"] += 1
        _, lhs, rhs = _congruence_by_oracles(pi, p)
        plus = lhs == rhs
        minus = lhs == -rhs % p
        row["plus"] += plus
        row["minus"] += minus
        row["exceptions"] += not (plus or minus)
    return row


def _rendered_hook_rows(out: str, fmt: str) -> list[dict]:
    """The records of a table or CSV verify-hook-formula report, as ints
    under the JSON record keys; a table's summary line is left out."""
    if fmt == "csv":
        return [
            {k: int(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(out))
        ]
    return [
        {k.replace("-", "_"): int(v) for k, v in (f.split("=") for f in line.split())}
        for line in out.splitlines()[:-1]
    ]


@pytest.mark.parametrize(
    "line",
    ["verify-hook-formula --n-max 12 --primes 3,5 --format table",
     "verify-hook-formula --n-max 12 --primes 2,7 --format csv",
     "verify-hook-formula --n-max 10 --primes 2,3 --format table",
     "verify-hook-formula --n-max 10 --primes 2,3 --format csv"],
)
def test_rendered_hook_rows_are_counted_again_by_the_oracles(line, capsys):
    """Every row of the PARENT_RECORDED table and CSV hook runs, and a
    table's summary line, are counted again from
    `core_and_quotient_by_sorting`, cell-by-cell degrees and the per-hook
    product, key by key in report order."""
    argv = line.split()
    status = cli.main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _recorded_sha256(line)
    n_max = int(argv[argv.index("--n-max") + 1])
    primes = [int(p) for p in argv[argv.index("--primes") + 1].split(",")]
    fmt = argv[argv.index("--format") + 1]
    expected = [
        _hook_row_by_oracles(n, p) for n in range(1, n_max + 1) for p in primes
    ]
    assert _rendered_hook_rows(out, fmt) == expected
    total = {k: sum(r[k] for r in expected) for k in expected[0]}
    assert status == 1 and total["exceptions"] > 0
    if fmt == "table":
        assert out.splitlines()[-1] == (
            f"{total['partitions']} checks, {total['equality_failures']} "
            f"equality failures, sign tally +{total['plus']}/-{total['minus']}, "
            f"{total['exceptions']} congruence exceptions"
        )


@pytest.mark.parametrize(
    "line",
    ["hll-check --n 12 --d 4", "hll-check --n 12 --d 3", "hll-check --n 9 --d 2",
     "hll-check --n 10 --d 5", "hll-check --n 16 --d 8", "hll-check --n 20 --d 4",
     "hll-check --n 24 --d 3"],
)
def test_hll_refutations_are_found_again_by_stripping(line, capsys):
    """The failing members of each exit-1 hll-check JSON report, from the
    benchmark and from PARENT_RECORDED, are exactly those of
    `hll_check_gl_by_stripping`, field for field and in order.  The recorded
    runs reach weights of 3 and more, whose member order `combine` sets."""
    status, out = _replay(line, capsys)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _recorded_sha256(line)
    report = json.loads(out)
    fmt = partitions.format_partition
    expected = [
        {
            "core": fmt(series.core),
            "partition": fmt(m.partition),
            "quotient": [fmt(c) for c in m.quotient],
            "constant": None if m.constant is None else str(m.constant),
            "display": m.constant_str,
            "expected": m.expected,
            "ok": False,
            "reason": m.reason,
        }
        for series in hll_check_gl_by_stripping(**report["parameters"]).series
        for m in series.members
        if not m.ok
    ]
    assert status == 1 and expected
    assert report["refutations"] == expected


def test_the_benchmarks_jobs_command_matches_golden():
    """The replay above runs the hook command with --jobs 1 in process; this
    runs it as the benchmark does, with --jobs 2 in its own process."""
    line = REPLAYED[0]
    assert "--jobs 2" in line
    r = subprocess.run(
        [sys.executable, "-m", "symblocks", *line.split(), "--format", "json"],
        capture_output=True,
    )
    assert hashlib.sha256(r.stdout).hexdigest() == GOLDEN[line]["sha256"]
    assert r.returncode == GOLDEN[line]["exit"] == 1


PARENT_RECORDED = (
    ("hll-check --n 9 --d 1 --format json",
     "5392e89ff04e72e2c9f56a30ae950f5badb47bb542272a5d552b7a8b29e86d6f", 0),
    ("hll-check --n 9 --d 2 --format json",
     "1ed0966613741ad320304d3e03ee5cecf3de19bd67ede0a84248565309f83df2", 1),
    ("tori --series A --n 8 --q 3 --format json",
     "a6e289dd90e0c46fad1456ae6c16a7e12c6ec7765d5c7a487b76aed8342b4adc", 0),
    ("tori --series 2A --n 8 --q 3 --format json",
     "9f61599361f79653b1d6c1ec0cf09a1834f044d0fc52c86f54d5b91bdac8f783", 0),
    ("tori --series B/C --n 8 --q 3 --format json",
     "961962ab29cf2e6941a3e0bacf12bec8055c0e04d69d8f4984a7711e1d550b04", 0),
    ("tori --series D --n 8 --q 3 --format json",
     "ecfe4b61950c24e43b280739ad9be7df3ab163f0a7097178d046cfe1d5be913e", 0),
    ("tori --series 2D --n 8 --q 3 --format json",
     "4106155b0a01c0984ab5728e5e1ba3fc1377c9744ea779a8439d1dc6880f1da3", 0),
    ("tori --series E6 --n 6 --q 3 --format json",
     "ff6db62dc83eafc10709f380df58fd2c9df34655fc4c4ee505a0dbb44ea5cdd3", 0),
    ("tori --series 2E6 --n 6 --q 3 --format json",
     "7b7687f458b3e0ac85bb291dcd22d8e906e8ef5ee91075be4e3acd213320fdf3", 0),
    ("tori --series E7 --n 7 --q 3 --format json",
     "4519e3b041de7c02df2391a0dafa075124c57e1154156b56a79046a5f2b8a52c", 0),
    ("speceq --q-max 5 --m-max 6 --exp-bound 2 --format json",
     "e8f7f5ae285713ff0dcd59c605331d18863aaf7eb2ff39d3f8433f0486051d5a", 0),
    ("unipotent --n 8 --format json",
     "4fc170e83a4c9f9d03d9b1c0102a6b4ae6f66b64244556cdbf82974a2c4dd7b8", 0),
    ("unipotent --n 8 --q 3 --format csv",
     "ddac4fbb036166bb77d38168d959581f4de6eba6704378734bc55b09a2e8c575", 0),
    ("hll-check --n 9 --d 4 --format table",
     "8771ab727ed45b6610448b2d4c20fd6ce3a9e7d65fe8da4f0ae79a59bfd081b4", 1),
    ("verify-wreath --e-max 6 --r-max 2 --format json",
     "a289fec574452996fe03caa77375ed07187b252741c4a7ccff28b19b97ecd52b", 0),
    ("hll-check --n 10 --d 5 --format json",
     "230e017a5d15f3a9b598893ae4be9e0c4841ece3d59a57892330eeb8ed01392f", 1),
    ("hll-check --n 11 --d 6 --format json",
     "8304b5bf46793adbb65ff88b46c4b5f5c45c88db3f240b909aced501817b66e0", 0),
    ("zsigmondy --q 2 --m 1 --format json",
     "6cf21b0b8ec0026bc101ac99b34118b9c10089598c4b93a9e184af1e6228184c", 0),
    ("zsigmondy --q 3 --m 2 --format json",
     "d8043909963f4bde438a72d00afaf9e867eddf7edbef03881d3361f6a6e4206e", 0),
    ("zsigmondy --q 7 --m 2 --format json",
     "40ade2f85eb63bc4ca58bb4c015e6633d4e160195e1c4c71b7043780470d850b", 0),
    ("zsigmondy --q 2 --m 6 --format json",
     "6e6498d3bde451a823a0228ac8024fc1f870ec3190181f846b2c8f8e1d72d2fc", 0),
    ("zsigmondy --q 3 --m 1 --format json",
     "939d97941294e5c89c68863ef48ad5f09827836c39fe4b4389199f4956c3ea0a", 0),
    ("zsigmondy --q 5 --m 2 --format json",
     "e90dcdb53da7d019a79c2acdbb23209f46f81838b413bfc1b9bdb616b3b7b018", 0),
    ("zsigmondy --q 53 --m 11 --format json",
     "e98cb2f1fbaa2adcf34e4190e68cc3c11ed196217180fbc5203470488feb6a48", 0),
    ("tori --series B/C --n 4 --q 9 --format json",
     "0d6ced800144502dfbb18d785083f8940c4355d24d2f8f9db813d15187a0f3d6", 0),
    ("scan-blocks --group sym --n-range 1..20 --p 5 --format json",
     "c8ed5d006ec096e52ced420ddbb7ecea1e6867b6e08f400c64f3d78c8d607ec1", 0),
    ("scan-blocks --group alt --n-range 2..20 --p 7 --format json",
     "5e521db62b7a4c6966332466c92b2e57f3edef2ca3c9a3d57636767b7c877f76", 0),
    ("scan-blocks --group sym --n-range 1..16 --p 13 --format json",
     "f55e0f746e57fef3bf5c39f638d3ac0c7efeb3daab81efbf8350e0035b50941f", 0),
    ("scan-blocks --group alt --n-range 2..20 --p 2 --format json",
     "75829cc3fb5d85b4b2d723fe8b830e2b1ede1b8d2271b729f3f71d086224fb53", 0),
    ("scan-blocks --group alt --n-range 2..20 --p 5 --format json",
     "47ca587c2df2f22ae0106d12d9e0829d2ba8d969c1483c3e2e75bf44b8e31ad3", 0),
    ("scan-blocks --group alt --n-range 2..18 --p 3 --ehzd-only --format table",
     "66641e2d67beb6d28e42d84268d85342585ce51a905f730ed385beba813f4469", 0),
    ("verify-wreath --e-max 6 --r-max 3 --format json",
     "7ff1401c53167f873afe0d4b5c59d212f91031fc8607606a3f58233e2b951c37", 0),
    ("verify-wreath --e-max 3 --r-max 5 --format table",
     "ed386b2dd4897619db9aa331bd4132a97876cbb62e26c69f524838ff35c68458", 0),
    ("verify-hook-formula --n-max 22 --primes 2,11,13 --jobs 1 --format json",
     "c1fdc974e3c51e2f1b3e80cccd73b08abd95a480e071526d6cf8ead189b30542", 1),
    ("verify-hook-formula --n-max 12 --primes 3,5 --format table",
     "bedce838efc2f3d7f82bda5446ff1f365dbee20cc0ece4b26603312d63e37f00", 1),
    ("verify-hook-formula --n-max 12 --primes 2,7 --format csv",
     "8086af207fd0f5032324ad720ef86c3221d239a635391c04eb0aa8a245f90bc1", 1),
    ("scan-blocks --group sym --n-range 1..12 --p 3 --format table",
     "5a548e23eb5b963fbef0f8b40719874b7b96c7c4f235ad293b7e022f7050dc01", 0),
    ("scan-blocks --group alt --n-range 2..12 --p 2 --format table",
     "e8f02ed626aa5f6d41b1c53c0329d3c5c78d0c63a41bc3c6b0b53e76dd69de20", 0),
    ("scan-blocks --group sym --n-range 1..10 --p 2 --ehzd-only --format table",
     "a788130a58be7bd45304975fb560c9c17281e4a2650d4822c932fab88e6417f2", 0),
    ("verify-hook-formula --n-max 10 --primes 2,3 --format table",
     "cd6f4150695725ab28779948af0aef42e364f811e0ea0a38cf92da1fd880d4fd", 1),
    ("verify-wreath --e-max 3 --r-max 3 --format table",
     "87c31e3f44da9e6bddc1234a29e37b55ceb1a17be6814b106411c28eb495b8f4", 0),
    ("unipotent --n 7 --format table",
     "70834295fc621cfb7113b29c818e3ba27c9f3519a45163d616f35831fa9444f6", 0),
    ("unipotent --n 7 --q 3 --format table",
     "2d25d25518f8bfe6360c63a8c605e61f966f7f03058961720aba2b55c4cebeae", 0),
    ("unipotent --n 6 --q 2 --collisions --format table",
     "90879280772d2509675b975b3b88e142785466876d96e1317d335224969061bf", 0),
    ("hll-check --n 9 --d 3 --format table",
     "039fbb905ac729beffd77fa467f428a43a87f897b5064ae43ab3f88285351903", 1),
    ("hll-check --n 9 --d 2 --format table",
     "412753d25140e68c2186a6dc4090c2ace4979a33b59ad6aa54a96a67b4f31990", 1),
    ("speceq --q-max 7 --m-max 6 --exp-bound 2 --format table",
     "6e763b65de6ab58a71cbc49e81d5aa7c32e614c74aa79815affd79ea3e2b217e", 0),
    ("tori --series B/C --n 4 --q 3 --format table",
     "b024b79eccf533662182bbb92fbb56d47932d057fcdab9894d1fd8fbd71b6cc3", 0),
    ("tori --series A --n 1 --q 2 --format table",
     "cd8358a3381f53b715c51b216f9ddcbfc8e679acc5bb06cd35d2d820ae9b5175", 0),
    ("zsigmondy --q 2 --m 6 --format table",
     "7a22f2f63e456a0e1b6807cea1d953e7efd218c8c1cc3011d494173445a0037a", 0),
    ("zsigmondy --q 52 --m 15 --format table",
     "7171fc9e466257cc3943536f80367c5152463a448b6d2cf77efa53ec251d2a22", 0),
    ("scan-blocks --group sym --n-range 1..12 --p 3 --format csv",
     "724f60bed04ea8df06d9d1964c74ecf3ce15f95ba510ea5ae3c21ec53bcef625", 0),
    ("scan-blocks --group alt --n-range 2..12 --p 2 --format csv",
     "cad3cfe028504927b86694494945b160d1d6a8075f2180a4cbb5b55063e0b171", 0),
    ("scan-blocks --group sym --n-range 1..10 --p 2 --ehzd-only --format csv",
     "c3c825aeeeaf9a423bb3465ff32dcd7151cb0a54b0f4f4380a4735a8a745f90e", 0),
    ("verify-hook-formula --n-max 10 --primes 2,3 --format csv",
     "29116bb283a3d915c62bd1e060d354c68de8467d6a2d9bf5be5fbfcad8b1cf7e", 1),
    ("verify-wreath --e-max 3 --r-max 3 --format csv",
     "e47ed2bf61b790f32bb30b9d7f2ab3c34feca7b01068824eb382d77e6c6cb08d", 0),
    ("unipotent --n 7 --format csv",
     "74912580879dfcf6b24af00dc3e747d3e0879d26dbe006fa77aa8a6b9e5e12d2", 0),
    ("unipotent --n 7 --q 3 --format csv",
     "6f5458138327dd8d09f892ff0ae444111a26fdd836ca75d3e3c2d7d969472dcd", 0),
    ("unipotent --n 6 --q 2 --collisions --format csv",
     "441a935ae88e8115a4a81612f2f6a9d5b932c48579da0faa9621c821ce5ac63c", 0),
    ("hll-check --n 9 --d 3 --format csv",
     "4874acd8564dc8e3abdcc4bb13e8d27c6578186a781d1a0fd3dd46ba83563c8b", 1),
    ("hll-check --n 9 --d 2 --format csv",
     "e6a1812db308a34849bfee9b834c3e85a7498767f9519d6c7de98c2ff0b4ca3d", 1),
    ("speceq --q-max 7 --m-max 6 --exp-bound 2 --format csv",
     "2262ade37eb8df8851c6ff215a8c176ffba546779a822180da467922e36bce2c", 0),
    ("tori --series B/C --n 4 --q 3 --format csv",
     "aff0f08aeba92d5511ed2b681adb8f1deaafa7d707dd180d9ee73f60b48a75ce", 0),
    ("tori --series A --n 1 --q 2 --format csv",
     "53e09fd511bc1418a81d9f143bb55bc0dcaff90b57b2d3374d955b6aee40ce23", 0),
    ("zsigmondy --q 2 --m 6 --format csv",
     "611110e387918295849c4e2d7dd1b4fd9c360ea061ccbc4c4ebeaf6403e55172", 0),
    ("zsigmondy --q 52 --m 15 --format csv",
     "d2579b364e227327f99e484dd2adef4b451fde908499527a64d0dcaf99d54e51", 0),
    ("unipotent --n 20 --q 2 --collisions --format json",
     "40a9e071fe5d03f10355bf225a744549789e6c0c4794aec5cd7f3140d3b822ac", 0),
    ("unipotent --n 22 --q 9 --format csv",
     "1e972d3fd64c67241c9dd5e0f570509e96409a0195e410aa3b1243dfa2d42186", 0),
    ("unipotent --n 16 --format table",
     "93f88f1db533bbc3f705bdf42caee61e92b61037369fee27fac70d4e514e237f", 0),
    ("verify-wreath --e-max 7 --r-max 3 --format json",
     "c7a960ddce550290999fb5dc090c73dd3f419fbf4f161497374fa5c718a6c983", 0),
    ("verify-wreath --e-max 5 --r-max 4 --format csv",
     "67ab7586a59bde92da740546c3ed226b0ef7eeba790f8b9bd46e8d31d19b08ba", 0),
    ("verify-wreath --e-max 8 --r-max 2 --format table",
     "57557d0409ce54a44cd446d2bca35a7389938bc6359fc69fdd768484ce44be90", 0),
    ("scan-blocks --group sym --n-range 27..28 --p 2 --format json",
     "0eab8b485f81740e960817a588eae789265e7ac374ef02ffbd26a2f2f8f8ed45", 0),
    ("scan-blocks --group alt --n-range 26..26 --p 3 --format json",
     "bd8146426acfadc5e5364739cba3bb1cc49ac96f85d26b6e2e22cd9393d326d2", 0),
    ("scan-blocks --group sym --n-range 30..30 --p 5 --format json",
     "3d56f3830fed2f511926905aebe72138095fba41c887fea5bbbb0b87d0ac95f5", 0),
    ("hll-check --n 16 --d 8 --format json",
     "3865d9b3829cfd74387e28a10cbcd20c4337f5b80a4e8995b653756c6fa2a893", 1),
    ("hll-check --n 14 --d 7 --format csv",
     "86827b1d972577fbef0c476d46e670e6e42513040ac26b16ae3e0d4e4c13d462", 1),
    ("hll-check --n 18 --d 10 --format table",
     "a0d34402d1eeb9e4278d38d4bdf5013d8468e3f579e8ba972338965bcb44eed8", 0),
    ("hll-check --n 20 --d 4 --format json",
     "9697bd9d8f5c058e6d293aee83762a04c256554dc5eb53fea2013a792a544759", 1),
    ("tori --series A --n 5 --q 2 --format json",
     "1df8b6ca609bed0ae64dbea03c3a63b9c64ff2ed825c22f1052f78111ace02ca", 0),
    ("tori --series A --n 5 --q 4 --format json",
     "f6537a3d6810a20e61dd962a0e09f6227400a89cd4add93bed04220e13fbbf00", 0),
    ("tori --series A --n 7 --q 2 --format json",
     "78db1bb536b31de67fc4d3e3ca64fa28a293544ea84481618f2c6bcc982e937f", 0),
    ("tori --series A --n 7 --q 4 --format json",
     "c45261785570aecc2563ead92ed9cbabe0554ab8a388c025e36fb43c53e32304", 0),
    ("tori --series 2A --n 5 --q 2 --format json",
     "bee327607ce82bce6f92f7e4f85255a80598ba0575ecb53b2050d1d35be75e0b", 0),
    ("tori --series 2A --n 5 --q 4 --format json",
     "10ee6deb5fe9e9fffb4af33b70a302c542fc5834d33ceedcc14368d8f5c8e3ef", 0),
    ("tori --series 2A --n 7 --q 2 --format json",
     "58454a5541fdbb40d40190a3d32ef50ce9c513f7422949cd98d3f2865945c4fb", 0),
    ("tori --series 2A --n 7 --q 4 --format json",
     "b5860e8b692bafeec0a9cdaae66778d22db7f5486e8226f318708b35f000a3d0", 0),
    ("tori --series B/C --n 5 --q 2 --format json",
     "0a093e979d8edc9d4cecdef2a248d04ae46cd42e8e854f089a7df8afeaa1b3a9", 0),
    ("tori --series B/C --n 5 --q 4 --format json",
     "f519265254d5f6842f07d1cd28733618fde363a57e973075ee99fdaa654a5ecd", 0),
    ("tori --series B/C --n 7 --q 2 --format json",
     "6ff1cc9838964324941088e517e4f8280dc90a7662fe48e56e33d292840c8801", 0),
    ("tori --series B/C --n 7 --q 4 --format json",
     "bc8b7bacf00e665a50d57544fad96106d7ddeeef116cdd8b5bcff7f73309f7e5", 0),
    ("tori --series D --n 5 --q 2 --format json",
     "6121e7af216e5c2a5c3470ffd6c86db7a2246b4986d88ab4a4c9a76d6340f718", 0),
    ("tori --series D --n 5 --q 4 --format json",
     "a922c47837f6bb190a0274424cd0b77a0ad67eebdf8102c370f44b5a7d876f7b", 0),
    ("tori --series D --n 7 --q 2 --format json",
     "8839a4fded11c295df22e5892e2f6f7e55d06d221e928f0da2b6376db8edf6c1", 0),
    ("tori --series D --n 7 --q 4 --format json",
     "b40c256dd4d749b11e02a6385328e14a0ee88d5a95018d73e56b9c0b00eb5571", 0),
    ("tori --series 2D --n 5 --q 2 --format json",
     "e255c4b51fe1e2eed65ba582a518745bcc9d1f7707b1f7b3ca2810b1491d746e", 0),
    ("tori --series 2D --n 5 --q 4 --format json",
     "aa7ef0a39a2ee74a86169c263feb6eab1b14759f1763783433af4ebbeac3a955", 0),
    ("tori --series 2D --n 7 --q 2 --format json",
     "a61542253360698ebc21403f51f07f2c3662df3c9022ea85a1d645028849bfd9", 0),
    ("tori --series 2D --n 7 --q 4 --format json",
     "3bd4b3b4014af5e1d775408d95e560087f0bbe332f98ed4138698973ec5f91ed", 0),
    ("scan-blocks --group sym --n-range 1..24 --p 3 --format json",
     "e858f4291ad5ab1bd6b31f58f7fec865f9c7c66bce1dc8b0552278b6bf0c2eee", 0),
    ("scan-blocks --group sym --n-range 1..26 --p 7 --format json",
     "090687df469bf9e5168d51ca10ecfbea06a32a4cef8e744ccf57a67b2920c58d", 0),
    ("scan-blocks --group alt --n-range 21..26 --p 5 --format json",
     "6dfb44fb9c80b5321d60bb0c748f5cc4d0075079e96d32fb50bc2667b46dc3ba", 0),
    ("hll-check --n 24 --d 3 --format json",
     "0968c103d8cbd673e4c6462c4d851ee94cbb212e6e6dc8779d038f0df875f2e0", 1),
    ("hll-check --n 22 --d 6 --format csv",
     "329bbec16ea82a3f43a3e584dbf265740053de726129967c9e68afe93e3a288a", 1),
    ("hll-check --n 21 --d 4 --format table",
     "52a7397f3216aafcc4bc4b03638058fa5ee94349206a614abec36e572bbc66cd", 1),
)


@pytest.mark.parametrize("line,sha256,status", PARENT_RECORDED)
def test_report_matches_parent_recording(line, sha256, status, capsys):
    assert cli.main(line.split()) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


PARENT_RECORDED_NO_WITNESS = (
    ("scan-blocks --group sym --n-range 5..6 --p 3 --ehzd-only --format json",
     "26cda6fc0c88fe9b798675eb35b5a6f5d2d8ba21c89f176448af9835f6f000a4", 1),
    ("scan-blocks --group sym --n-range 5..6 --p 3 --ehzd-only --format table",
     "2ffe2caebf5f970fc1efa65548868a9a4b45f9eb805cb999933d8764d6ec0e6a", 1),
    ("scan-blocks --group sym --n-range 5..6 --p 3 --ehzd-only --format csv",
     "d1963e5083d03d50f32385cbbb8b7e3e067b4cfabc3b229adaa11640accfdf97", 1),
)


@pytest.mark.parametrize("line,sha256,status", PARENT_RECORDED_NO_WITNESS)
def test_refutation_report_matches_parent_recording(
    line, sha256, status, monkeypatch, capsys
):
    monkeypatch.setattr(blocks, "_height_zero_witness", lambda block, accept: None)
    assert cli.main(line.split()) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
