"""Replay recorded benchmark commands and compare the report bytes.

perfbench/golden.json holds the stdout sha256 and the exit status of every
benchmark command, as printed by `python -m symblocks ARGV --format json`.
One entry per subcommand is replayed here in-process with --jobs 1 (the
recorder checks that --jobs does not change the bytes), so a refactor that
changes any report byte or exit status fails the suite.

PARENT_RECORDED covers the paths the benchmark does not reach: hll-check at
d = 1 and d = 2 (rational roots of unity) and at d = 5 and d = 6, verify-wreath
at field orders 5 and 6 (up to rank 3) and at ranks 4 and 5 for e <= 3
(through the table renderer), every torus series, speceq, the CSV and table
renderers, and zsigmondy at m = 1 and m = 2, where no primitive prime exists
(including the exception (2, 6)), at a 58-bit prime Phi_11(53),
scan-blocks at the primes 5, 7 and 13 (the benchmark scans only p = 2 and 3),
where many blocks have weight 0 and p > n for the smallest n, the alternating
scan at p = 2 (unclassified blocks at weight >= 2, one defect zero member at
weight 1) and at p = 5, and the table renderer with --ehzd-only.  Its digests
were recorded from the code before the change that each entry guards (the
integer-only polynomial substrate, then integer cyclotomic coordinates, then
the congruence search for Zsigmondy primes, then cores grown on the abacus,
then one block builder for the symmetric and alternating scans, then Schur
values tallied by factor class), so the change is checked against the bytes
it had to keep.
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
)


@pytest.mark.parametrize("line,sha256,status", PARENT_RECORDED)
def test_report_matches_parent_recording(line, sha256, status, capsys):
    assert cli.main(line.split()) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
