"""Command line driver for batch scans and verification runs.

Every subcommand builds one report object; JSON output is that object
verbatim and is the source of truth, CSV is a flat projection of its
records, and the table format is a readable summary of the same data.
Reruns with identical flags produce byte-identical output.

Exit status: 0 on success, 1 when at least one refutation record was
emitted (a counterexample to one of the checked statements), 2 on usage
errors and on an --out file that cannot be written, with a single-line
diagnostic on stderr, 3 on any other exception (an internal check of the
library failed: an inexact division, a failed Schur evaluation, a block no
classification case covers, a ValueError the flags should have ruled out),
with a single "internal error:" line.  Every bound the library relies on is
checked here, so only UsageError means status 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from math import factorial

from .algebra import MILLER_RABIN_BOUND, is_prime, power_base, zsigmondy
from .blocks import (
    ClassificationError,
    blocks_an,
    blocks_sn,
    classify_sym,
    is_ehzd,
    quotient_congruence,
    relative_hook_degree,
    to_json_record,
)
from .partitions import degree, enumerate_partitions, format_partition
from .unipotent import (
    TORI_SERIES,
    degree_collisions,
    hll_check_gl,
    speceq_search,
    tori_check,
    tori_entry,
    unipotent_degrees_gl,
)
from .wreath import (
    enumerate_multipartitions,
    schur_specialize_roots,
    symbol_of,
    wreath_degree,
)

EXCEPTION_DETAIL_CAP = 200


class UsageError(Exception):
    """Bad flags or flag combinations; reported on one line, status 2."""


# ---------------------------------------------------------------------------
# small helpers


def _parse_range(text: str) -> tuple[int, int]:
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


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"primes must be a comma list of integers, got {text!r}") from None
    bad = [v for v in values if not _provable_prime(v)]
    if bad:
        raise UsageError(
            f"primes must all be primes below {MILLER_RABIN_BOUND}, got {bad[0]}"
        )
    return values


def _provable_prime(value: int) -> bool:
    """A prime that is_prime settles by Miller-Rabin; above the bound it would
    trial-divide for ever."""
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


def _poly_coeffs(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _parallel_map(fn, keys, jobs):
    # the fork start method forks every worker up front, so ask for no more
    # workers than there are keys or CPUs this process may run on
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(keys), cpus)
    if workers <= 1:
        return [fn(k) for k in keys]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, keys))


# ---------------------------------------------------------------------------
# scan-blocks


def _scan_blocks_worker(key):
    group, n, p, ehzd_only = key
    out = []
    if group == "sym":
        for blk in blocks_sn(n, p):
            try:
                cls = classify_sym(blk)
                case, wit = cls.case, cls.witness
            except ClassificationError:
                case, wit = "failure", None
            rec = to_json_record(replace(blk, classification=case, witness=wit))
            rec["refutation"] = case == "failure" or (
                is_ehzd(blk) and blk.label.weight > 0 and case not in ("b", "c")
            )
            if rec["refutation"] or not ehzd_only or rec["ehzd"]:
                out.append(rec)
    else:
        for blk in blocks_an(n, p):
            rec = to_json_record(blk)
            rec["refutation"] = (
                blk.defect > 0
                and is_ehzd(blk)
                and blk.classification not in ("b", "unclassified")
            )
            if rec["refutation"] or not ehzd_only or rec["ehzd"]:
                out.append(rec)
    return out


def _cmd_scan_blocks(args) -> dict:
    lo, hi = _parse_range(args.n_range)
    if args.group == "alt" and lo < 2:
        raise UsageError(f"alt ranges must start at 2 or more, got {args.n_range!r}")
    keys = [(args.group, n, args.p, bool(args.ehzd_only)) for n in range(lo, hi + 1)]
    chunks = _parallel_map(_scan_blocks_worker, keys, args.jobs)
    records = [rec for chunk in chunks for rec in chunk]
    refutations = [rec for rec in records if rec["refutation"]]
    return {
        "command": "scan-blocks",
        "parameters": {
            "group": args.group,
            "n_range": [lo, hi],
            "p": args.p,
            "ehzd_only": bool(args.ehzd_only),
        },
        "records": records,
        "summary": {
            "blocks": len(records),
            "ehzd_blocks": sum(1 for r in records if r["ehzd"]),
            "refutations": len(refutations),
        },
        "refutations": refutations,
    }


# ---------------------------------------------------------------------------
# verify-hook-formula


def _hook_worker(key):
    n, p = key
    equality_failures = []
    exceptions = []
    plus = minus = checks = 0
    for pi in enumerate_partitions(n):
        checks += 1
        if relative_hook_degree(pi, p) != degree(pi):
            equality_failures.append(
                {"n": n, "p": p, "partition": format_partition(pi)}
            )
        rep = quotient_congruence(pi, p)
        if rep.holds_plus:
            plus += 1
        if rep.holds_minus:
            minus += 1
        if not rep.holds:
            exceptions.append(
                {
                    "n": n,
                    "p": p,
                    "partition": format_partition(pi),
                    "ratio": str(rep.ratio),
                    "lhs": rep.lhs,
                    "rhs": rep.rhs,
                }
            )
    row = {
        "n": n,
        "p": p,
        "partitions": checks,
        "equality_failures": len(equality_failures),
        "plus": plus,
        "minus": minus,
        "exceptions": len(exceptions),
    }
    return row, equality_failures, exceptions


def _cmd_verify_hook(args) -> dict:
    primes = _parse_primes(args.primes)
    keys = [(n, p) for n in range(1, args.n_max + 1) for p in primes]
    results = _parallel_map(_hook_worker, keys, args.jobs)
    rows = [row for row, _, _ in results]
    equality_failures = [f for _, fs, _ in results for f in fs]
    exceptions = [e for _, _, es in results for e in es]
    shown = exceptions[:EXCEPTION_DETAIL_CAP]
    return {
        "command": "verify-hook-formula",
        "parameters": {"n_max": args.n_max, "primes": list(primes)},
        "records": rows,
        "summary": {
            "checks": sum(r["partitions"] for r in rows),
            "equality_failures": len(equality_failures),
            "congruence_plus": sum(r["plus"] for r in rows),
            "congruence_minus": sum(r["minus"] for r in rows),
            "congruence_exceptions": len(exceptions),
            "exceptions_listed": len(shown),
        },
        "refutations": equality_failures + shown,
    }


# ---------------------------------------------------------------------------
# verify-wreath


def _wreath_worker(key):
    e, r = key
    order = e**r * factorial(r)
    sum_squares = 0
    count = 0
    mismatches = []
    for nu in enumerate_multipartitions(e, r):
        count += 1
        d = wreath_degree(nu)
        sum_squares += d * d
        f = schur_specialize_roots(symbol_of(nu))
        if abs(f) * order != d:
            mismatches.append(
                {
                    "e": e,
                    "r": r,
                    "multipartition": [format_partition(c) for c in nu],
                    "value": str(f),
                    "degree": str(d),
                }
            )
    return {
        "e": e,
        "r": r,
        "characters": count,
        "sum_squares_ok": sum_squares == order,
        "degrees_match": not mismatches,
    }, mismatches


def _cmd_verify_wreath(args) -> dict:
    keys = [(e, r) for e in range(1, args.e_max + 1) for r in range(1, args.r_max + 1)]
    results = _parallel_map(_wreath_worker, keys, args.jobs)
    rows = [row for row, _ in results]
    mismatches = [m for _, ms in results for m in ms]
    bad_sums = [
        {"e": r["e"], "r": r["r"], "reason": "sum of squares misses the group order"}
        for r in rows
        if not r["sum_squares_ok"]
    ]
    return {
        "command": "verify-wreath",
        "parameters": {"e_max": args.e_max, "r_max": args.r_max},
        "records": rows,
        "summary": {
            "pairs": len(rows),
            "characters": sum(r["characters"] for r in rows),
            "mismatches": len(mismatches),
        },
        "refutations": mismatches + bad_sums,
    }


# ---------------------------------------------------------------------------
# unipotent


def _cmd_unipotent(args) -> dict:
    if args.collisions and args.q is None:
        raise UsageError("--collisions requires --q")
    entries = unipotent_degrees_gl(args.n)
    records = []
    for entry in entries:
        rec = {
            "partition": format_partition(entry.partition),
            "coefficients": _poly_coeffs(entry.poly),
            "value_at_1": str(degree(entry.partition)),
        }
        if args.q is not None:
            rec["value_at_q"] = str(entry.poly(args.q))
        records.append(rec)
    collisions = []
    if args.collisions:
        for first, second in degree_collisions(args.n, args.q):
            poly = dict((e.partition, e.poly) for e in entries)[first]
            collisions.append(
                {
                    "first": format_partition(first),
                    "second": format_partition(second),
                    "value": str(poly(args.q)),
                }
            )
    parameters = {"n": args.n}
    if args.q is not None:
        parameters["q"] = args.q
    parameters["collisions"] = bool(args.collisions)
    return {
        "command": "unipotent",
        "parameters": parameters,
        "records": records,
        "collisions": collisions,
        "summary": {"partitions": len(records), "collisions": len(collisions)},
        "refutations": [],
    }


# ---------------------------------------------------------------------------
# hll-check


def _cmd_hll_check(args) -> dict:
    if args.d > args.n:
        raise UsageError(f"--d must be at most --n, got {args.d} > {args.n}")
    report = hll_check_gl(args.n, args.d)
    records = []
    refutations = []
    members_total = 0
    for series in report.series:
        members = []
        for m in series.members:
            members_total += 1
            entry = {
                "partition": format_partition(m.partition),
                "quotient": [format_partition(c) for c in m.quotient],
                "constant": None if m.constant is None else str(m.constant),
                "display": m.constant_str,
                "expected": m.expected,
                "ok": m.ok,
                "reason": m.reason,
            }
            members.append(entry)
            if not m.ok:
                refutations.append(
                    {"core": format_partition(series.core), **entry}
                )
        records.append(
            {
                "core": format_partition(series.core),
                "weight": series.weight,
                "members": members,
            }
        )
    return {
        "command": "hll-check",
        "parameters": {"n": args.n, "d": args.d},
        "records": records,
        "summary": {
            "series": len(records),
            "members": members_total,
            "failures": len(refutations),
        },
        "refutations": refutations,
    }


# ---------------------------------------------------------------------------
# speceq


def _cmd_speceq(args) -> dict:
    witnesses = speceq_search(args.q_max, args.m_max, args.exp_bound, args.n_bound)
    records = []
    for w in witnesses:
        records.append(
            {
                "q": w.q,
                "m": w.m,
                "exponents": list(w.exponents),
                "n1": w.n1,
                "n2": w.n2,
                "part_a": w.power_pair,
                "part_b": w.divides_bound(args.n_bound),
                "full_support": w.full_support,
            }
        )
    summary_rows = []
    for m in sorted({r["m"] for r in records}):
        group = [r for r in records if r["m"] == m]
        summary_rows.append(
            {
                "m": m,
                "part_a_q": sorted({r["q"] for r in group if r["part_a"]}),
                "part_b_q": sorted({r["q"] for r in group if r["part_b"]}),
                "part_b_full_support_q": sorted(
                    {r["q"] for r in group if r["part_b"] and r["full_support"]}
                ),
            }
        )
    return {
        "command": "speceq",
        "parameters": {
            "q_max": args.q_max,
            "m_max": args.m_max,
            "exp_bound": args.exp_bound,
            "n_bound": args.n_bound,
        },
        "records": records,
        "summary": {"witnesses": len(records), "by_m": summary_rows},
        "refutations": [],
    }


# ---------------------------------------------------------------------------
# tori


def _cmd_tori(args) -> dict:
    try:
        entry = tori_entry(args.series, args.n)
    except ValueError as exc:  # a rank outside the series, before any work
        raise UsageError(str(exc)) from None
    report = tori_check(entry, args.q)
    record = {
        "series": entry.series,
        "n": entry.n,
        "q": args.q,
        "t1_coefficients": _poly_coeffs(entry.t1),
        "t2_coefficients": _poly_coeffs(entry.t2),
        "t1_value": str(report.t1_value),
        "t2_value": str(report.t2_value),
        "m1": entry.m1,
        "m2": entry.m2,
        "l1": report.z1.prime,
        "l2": report.z2.prime,
        "l1_divides": report.divides1,
        "l2_divides": report.divides2,
        "missing": list(report.missing),
    }
    refutations = [
        {"series": entry.series, "n": entry.n, "q": args.q, "torus": i}
        for i in report.failures
    ]
    return {
        "command": "tori",
        "parameters": {"series": args.series, "n": args.n, "q": args.q},
        "records": [record],
        "summary": {
            "missing_primes": len(report.missing),
            "failures": len(refutations),
        },
        "refutations": refutations,
    }


# ---------------------------------------------------------------------------
# zsigmondy


def _cmd_zsigmondy(args) -> dict:
    result = zsigmondy(args.q, args.m)
    record = {
        "q": args.q,
        "m": args.m,
        "prime": result.prime,
        "exists": result.prime is not None,
    }
    return {
        "command": "zsigmondy",
        "parameters": {"q": args.q, "m": args.m},
        "records": [record],
        "summary": {"exists": record["exists"]},
        "refutations": [],
    }


# ---------------------------------------------------------------------------
# rendering


def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _csv_projection(report: dict) -> tuple[list[str], list[list]]:
    cmd = report["command"]
    if cmd == "scan-blocks":
        header = [
            "group", "n", "p", "core", "weight", "defect", "ehzd",
            "classification", "partition", "degree", "height",
        ]
        rows = []
        for rec in report["records"]:
            for m in rec["members"]:
                rows.append(
                    [
                        rec["group"], rec["n"], rec["p"], rec["core"],
                        rec["weight"], rec["defect"], rec["ehzd"],
                        rec["classification"], m["partition"], m["degree"],
                        m["height"],
                    ]
                )
        return header, rows
    if cmd == "verify-hook-formula":
        header = ["n", "p", "partitions", "equality_failures", "plus", "minus", "exceptions"]
        return header, [[r[h] for h in header] for r in report["records"]]
    if cmd == "verify-wreath":
        header = ["e", "r", "characters", "sum_squares_ok", "degrees_match"]
        return header, [[r[h] for h in header] for r in report["records"]]
    if cmd == "unipotent":
        if report["parameters"].get("collisions"):
            header = ["first", "second", "value"]
            return header, [[r[h] for h in header] for r in report["collisions"]]
        header = ["partition", "coefficients", "value_at_1"]
        rows = []
        has_q = "q" in report["parameters"]
        if has_q:
            header = header + ["value_at_q"]
        for r in report["records"]:
            row = [r["partition"], " ".join(r["coefficients"]), r["value_at_1"]]
            if has_q:
                row.append(r["value_at_q"])
            rows.append(row)
        return header, rows
    if cmd == "hll-check":
        header = ["core", "weight", "partition", "constant", "expected", "ok", "reason"]
        rows = []
        for series in report["records"]:
            for m in series["members"]:
                rows.append(
                    [
                        series["core"], series["weight"], m["partition"],
                        m["display"], m["expected"], m["ok"], m["reason"] or "",
                    ]
                )
        return header, rows
    if cmd == "speceq":
        header = ["q", "m", "exponents", "n1", "n2", "part_a", "part_b", "full_support"]
        rows = []
        for r in report["records"]:
            rows.append(
                [
                    r["q"], r["m"], " ".join(str(a) for a in r["exponents"]),
                    r["n1"], r["n2"], r["part_a"], r["part_b"], r["full_support"],
                ]
            )
        return header, rows
    if cmd == "tori":
        header = [
            "series", "n", "q", "t1_value", "t2_value", "m1", "m2",
            "l1", "l2", "l1_divides", "l2_divides",
        ]
        return header, [[r[h] for h in header] for r in report["records"]]
    if cmd == "zsigmondy":
        header = ["q", "m", "prime", "exists"]
        return header, [[r[h] for h in header] for r in report["records"]]
    raise AssertionError(f"no CSV projection for {cmd}")  # pragma: no cover


def _render_csv(report: dict) -> str:
    header, rows = _csv_projection(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render_table(report: dict) -> str:
    cmd = report["command"]
    lines = []
    if cmd == "scan-blocks":
        p = report["parameters"]
        lines.append(
            f"{p['group']} blocks, p={p['p']}, n={p['n_range'][0]}..{p['n_range'][1]}"
            + (", height-zero-equal only" if p["ehzd_only"] else "")
        )
        for rec in report["records"]:
            hz = ",".join(rec["height_zero_degrees"])
            wit = ""
            if rec["witness"]:
                wit = " witness " + " ".join(
                    f"{w['partition']}:{w['degree']}" for w in rec["witness"]
                )
            flag = " REFUTATION" if rec["refutation"] else ""
            lines.append(
                f"n={rec['n']} core={rec['core']} w={rec['weight']} "
                f"defect={rec['defect']} case={rec['classification']} "
                f"ehzd={'yes' if rec['ehzd'] else 'no'} hz-degrees={hz}{wit}{flag}"
            )
        s = report["summary"]
        lines.append(
            f"blocks {s['blocks']}, height-zero-equal {s['ehzd_blocks']}, "
            f"refutations {s['refutations']}"
        )
    elif cmd == "verify-hook-formula":
        for r in report["records"]:
            lines.append(
                f"n={r['n']} p={r['p']} partitions={r['partitions']} "
                f"equality-failures={r['equality_failures']} plus={r['plus']} "
                f"minus={r['minus']} exceptions={r['exceptions']}"
            )
        s = report["summary"]
        lines.append(
            f"{s['checks']} checks, {s['equality_failures']} equality failures, "
            f"sign tally +{s['congruence_plus']}/-{s['congruence_minus']}, "
            f"{s['congruence_exceptions']} congruence exceptions"
        )
    elif cmd == "verify-wreath":
        for r in report["records"]:
            lines.append(
                f"e={r['e']} r={r['r']} characters={r['characters']} "
                f"sum-squares={'ok' if r['sum_squares_ok'] else 'FAIL'} "
                f"degrees={'ok' if r['degrees_match'] else 'FAIL'}"
            )
        s = report["summary"]
        lines.append(
            f"{s['pairs']} pairs, {s['characters']} characters, "
            f"{s['mismatches']} mismatches"
        )
    elif cmd == "unipotent":
        has_q = "q" in report["parameters"]
        for r in report["records"]:
            line = f"{r['partition']} degree={r['value_at_1']}"
            if has_q:
                line += f" value={r['value_at_q']}"
            line += " coeffs=" + ",".join(r["coefficients"])
            lines.append(line)
        if report["parameters"].get("collisions"):
            if report["collisions"]:
                for c in report["collisions"]:
                    lines.append(
                        f"collision {c['first']} {c['second']} value={c['value']}"
                    )
            else:
                lines.append("no collisions")
    elif cmd == "hll-check":
        for series in report["records"]:
            lines.append(f"series core={series['core']} weight={series['weight']}")
            for m in series["members"]:
                status = "ok" if m["ok"] else f"FAIL ({m['reason']})"
                lines.append(
                    f"  {m['partition']} constant={m['display']} "
                    f"expected={m['expected']} {status}"
                )
        s = report["summary"]
        lines.append(
            f"{s['series']} series, {s['members']} members, {s['failures']} failures"
        )
    elif cmd == "speceq":
        for r in report["records"]:
            tags = [t for t, on in (("a", r["part_a"]), ("b", r["part_b"])) if on]
            full = " full" if r["full_support"] else ""
            lines.append(
                f"q={r['q']} m={r['m']} a=({','.join(str(x) for x in r['exponents'])}) "
                f"n1={r['n1']} n2={r['n2']} part={'/'.join(tags)}{full}"
            )
        for row in report["summary"]["by_m"]:
            lines.append(
                f"m={row['m']}: part-b q={row['part_b_q']} "
                f"full-support q={row['part_b_full_support_q']} "
                f"part-a q={row['part_a_q']}"
            )
    elif cmd == "tori":
        r = report["records"][0]
        lines.append(f"series {r['series']} n={r['n']} q={r['q']}")
        for i in (1, 2):
            prime = r[f"l{i}"]
            div = r[f"l{i}_divides"]
            if prime is None:
                tail = "no primitive prime"
            else:
                tail = f"l={prime} divides={'yes' if div else 'NO'}"
            lines.append(f"  T{i} order {r[f't{i}_value']} (m={r[f'm{i}']}): {tail}")
    elif cmd == "zsigmondy":
        r = report["records"][0]
        if r["prime"] is None:
            lines.append(f"q={r['q']} m={r['m']}: no primitive prime divisor")
        else:
            lines.append(f"q={r['q']} m={r['m']}: {r['prime']}")
    else:  # pragma: no cover
        raise AssertionError(cmd)
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    return _render_table(report)


def _emit(text: str, args) -> None:
    if not args.out:
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
    parser = _Parser(prog="symblocks", description=__doc__)
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
    p.add_argument("--n-range", required=True, help="inclusive range A..B")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--ehzd-only", action="store_true",
                   help="only blocks whose height-zero degrees agree")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_scan_blocks)

    p = sub.add_parser(
        "verify-hook-formula", parents=[common],
        help="exercise the relative degree formula and its congruence",
    )
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--primes", required=True, help="comma list, e.g. 2,3,5,7")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_verify_hook)

    p = sub.add_parser(
        "verify-wreath", parents=[common],
        help="check wreath product degrees against root-of-unity values",
    )
    p.add_argument("--e-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_verify_wreath)

    p = sub.add_parser(
        "unipotent", parents=[common],
        help="degree polynomials, optionally with values and collisions",
    )
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--q", type=_prime_power, default=None)
    p.add_argument("--collisions", action="store_true")
    p.set_defaults(handler=_cmd_unipotent)

    p = sub.add_parser(
        "hll-check", parents=[common],
        help="reduce degree polynomials against their series modulo Phi_d",
    )
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_hll_check)

    p = sub.add_parser(
        "speceq", parents=[common],
        help="enumerate identities n1 = n2 * prod Phi_i(q)^a_i",
    )
    p.add_argument("--q-max", type=_base_int, required=True)
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--exp-bound", type=_positive_int, required=True)
    p.add_argument("--n-bound", type=_positive_int, default=120)
    p.set_defaults(handler=_cmd_speceq)

    p = sub.add_parser(
        "tori", parents=[common],
        help="torus orders for one series with primitive prime checks",
    )
    p.add_argument("--series", choices=TORI_SERIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_prime_power, required=True)
    p.set_defaults(handler=_cmd_tori)

    p = sub.add_parser(
        "zsigmondy", parents=[common],
        help="smallest primitive prime divisor of q^m - 1",
    )
    p.add_argument("--q", type=_base_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_zsigmondy)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.handler(args)
        _emit(_render(report, args.format), args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 1 if report["refutations"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
