"""Command line driver for batch scans and verification runs.

Every subcommand builds one report object; JSON output is that object
verbatim and is the source of truth, CSV is a flat projection of its
records, and the table format is a readable summary of the same data.
Reruns with identical flags produce byte-identical output.

A subcommand is its parser block in `_build_parser` and its module in
`symblocks.commands`, named after it with - replaced by _.  Once the flags
are parsed, `main` imports that module, so a process compiles and loads only
its own subcommand's code and the layers that code imports; this module
keeps only what every run needs.  `main` wraps the result of the module's
`report(args)` in the report envelope: "command" is the subcommand name
and "parameters" echoes the parsed flags in parser order, all but --format,
--out and --jobs, leaving out an optional flag that was not given.
`_render` writes the JSON itself, and the CSV and the table from the
module's `csv_rows(report)` and `table_lines(report)`.

Only `algebra` is imported at module level, and `_render` imports only what
its format needs.  A --jobs run forks its workers from inside `report`, once
the subcommand's module and the layers it imports are loaded, so the
workers inherit them.

Exit status: 0 on success, 1 when at least one refutation record was
emitted (a counterexample to one of the checked statements), 2 on usage
errors, on an --out file that cannot be written and on a primitive prime
search refused because the least prime sought is not proven, with a
single-line diagnostic on stderr, 3 on any other exception (an internal
check of the library failed: an inexact division, a failed Schur
evaluation, a block of unexpected shape, a ValueError the flags should have
ruled out), with a single "internal error:" line.  A block that no
classification case covers is a refutation, for either group.  Every bound
the library relies on is checked here, so only UsageError and the library's
UnprovenPrimeError, a refusal to report a prime it cannot prove, mean
status 2.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from .algebra import (
    MILLER_RABIN_BOUND,
    TORI_SERIES,
    UnprovenPrimeError,
    is_prime,
    power_base,
)

# parsed attributes that are not echoed under "parameters"
_NOT_ECHOED = frozenset({"command", "format", "out", "jobs"})


class UsageError(Exception):
    """Bad flags or flag combinations; reported on one line, status 2."""


# ---------------------------------------------------------------------------
# small helpers


def _n_range(text: str) -> tuple[int, int]:
    """An argparse type: an inclusive range A..B with 1 <= A <= B."""
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"range must look like A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"range endpoints must be integers, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"range must satisfy 1 <= A <= B, got {text!r}")
    return lo, hi


def _primes(text: str) -> tuple[int, ...]:
    """An argparse type: a comma list of distinct provable primes."""
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"primes must be a comma list of integers, got {text!r}") from None
    bad = [v for v in values if not _provable_prime(v)]
    if bad:
        raise UsageError(
            f"primes must all be primes below {MILLER_RABIN_BOUND}, got {bad[0]}"
        )
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise UsageError(f"primes must be distinct, got {repeated[0]} twice")
    return values


def _provable_prime(value: int) -> bool:
    """A prime that is_prime proves.  At or above the bound is_prime refuses
    a probable prime with UnprovenPrimeError; the bound is checked first, so
    such a flag gets argparse's usage message instead."""
    return value < MILLER_RABIN_BOUND and is_prime(value)


def _checked_int(accept, requirement: str):
    """An argparse type: an integer that accept() admits."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return parse


_positive_int = _checked_int(lambda v: v >= 1, "at least 1")
_base_int = _checked_int(lambda v: v >= 2, "at least 2")
_prime = _checked_int(_provable_prime, f"a prime below {MILLER_RABIN_BOUND}")
_prime_power = _checked_int(
    lambda v: v >= 2 and _provable_prime(power_base(v)),
    f"a power of a prime below {MILLER_RABIN_BOUND}",
)


def _flat(*columns: str, key: str = "records"):
    """The CSV projection of reports whose report[key] entries carry every
    column as a field."""

    def project(report: dict) -> list[list]:
        return [list(columns)] + [[r[c] for c in columns] for r in report[key]]

    return project


# ---------------------------------------------------------------------------
# rendering and output


def _json(value, indent: str, quote) -> str:
    """The text json.dumps(value, indent=2) gives at this depth, for the
    report's own types: dict with str keys, list, tuple, str,
    bool, int and None; quote is json's encode_basestring_ascii.  Each
    container joins its children's texts.  Any other type, a float, a
    Fraction or a library record (a tuple subclass) say, raises TypeError,
    so no inexact number or unrendered record can reach a report."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for k, v in value.items():
            # most leaves are str or int: write them here, saving a call
            if type(v) is str:
                text = quote(v)
            elif type(v) is int:
                text = int.__repr__(v)
            else:
                text = _json(v, inner, quote)
            items.append(quote(k) + ": " + text)
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if type(value) in (list, tuple):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [quote(v) if type(v) is str else _json(v, inner, quote) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, str):
        return quote(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(report: dict, args) -> str:
    if args.format == "json":
        # the C function json.encoder wraps, without json's decoder and scanner
        try:
            from _json import encode_basestring_ascii
        except ImportError:
            from json.encoder import encode_basestring_ascii

        return _json(report, "", encode_basestring_ascii) + "\n"
    # the JSON writer's type check, unquoted: no format prints an inexact number
    _json(report, "", str)
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            _command(args.command).csv_rows(report)
        )
        return buf.getvalue()
    return "\n".join(_command(args.command).table_lines(report)) + "\n"


def _emit(text: str, args) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    path = args.out
    base = os.environ.get("SYMBLOCKS_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
            # a device, FIFO or symlink is written through, never replaced
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _replace_file(path, text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _replace_file(path: str, text: str) -> None:
    """Write a temp file beside the regular file `path` and rename it into
    place, so a failed write never leaves a partial report behind.  The file
    gets the mode of the file it replaces, else the mode open() would give."""
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        mode = None
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="symblocks",
        description="Exact scans behind the equal-height-zero-degree results: "
        "blocks of symmetric and alternating groups, wreath-product degrees, "
        "and the unipotent degrees, cyclotomic identities and primitive prime "
        "divisors of the Lie-type groups.  Exit status: 0 when nothing is "
        "refuted, 1 when a refutation is found, 2 on a usage error, 3 on an "
        "internal error.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default table)",
    )
    common.add_argument(
        "--out", default=None,
        help="write output to this file; relative paths honor SYMBLOCKS_OUT_DIR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "scan-blocks", parents=[common],
        help="list blocks with degrees, heights and classification",
    )
    p.add_argument("--group", choices=("sym", "alt"), required=True)
    p.add_argument("--n-range", type=_n_range, required=True,
                   help="inclusive range A..B")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--ehzd-only", action="store_true",
                   help="only blocks whose height-zero degrees agree")
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser(
        "verify-hook-formula", parents=[common],
        help="exercise the relative degree formula and its congruence",
    )
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--primes", type=_primes, required=True,
                   help="comma list of distinct primes, e.g. 2,3,5,7")
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser(
        "verify-wreath", parents=[common],
        help="check wreath product degrees against root-of-unity values",
    )
    p.add_argument("--e-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser(
        "unipotent", parents=[common],
        help="degree polynomials, optionally with values and collisions",
    )
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--q", type=_prime_power, default=None)
    p.add_argument("--collisions", action="store_true")

    p = sub.add_parser(
        "hll-check", parents=[common],
        help="reduce degree polynomials against their series modulo Phi_d",
    )
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)

    p = sub.add_parser(
        "speceq", parents=[common],
        help="enumerate identities n1 = n2 * prod Phi_i(q)^a_i",
    )
    p.add_argument("--q-max", type=_base_int, required=True)
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--exp-bound", type=_positive_int, required=True)
    p.add_argument("--n-bound", type=_positive_int, default=120)

    p = sub.add_parser(
        "tori", parents=[common],
        help="torus orders for one series with primitive prime checks",
    )
    p.add_argument("--series", choices=TORI_SERIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_prime_power, required=True)

    p = sub.add_parser(
        "zsigmondy", parents=[common],
        help="smallest primitive prime divisor of q^m - 1",
    )
    p.add_argument("--q", type=_base_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)

    return parser


def _command(name: str):
    """The module of subcommand `name`, symblocks.commands.<name with - as _>,
    imported the first time it is asked for."""
    return importlib.import_module(f".commands.{name.replace('-', '_')}", __package__)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = {
            "command": args.command,
            "parameters": {
                k: v
                for k, v in vars(args).items()
                if k not in _NOT_ECHOED and v is not None
            },
            **_command(args.command).report(args),
        }
        _emit(_render(report, args), args)
    except (UsageError, UnprovenPrimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 1 if report["refutations"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
