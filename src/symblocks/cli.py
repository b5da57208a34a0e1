"""Command line driver for batch scans and verification runs.

Every subcommand builds one report object; JSON output is that object
verbatim and is the source of truth, CSV is a flat projection of its
records, and the table format is a readable summary of the same data.
Reruns with identical flags produce byte-identical output.

A subcommand is registered once, by its parser block in `_build_parser`,
which ends with `set_defaults(handler=..., csv=..., table=...)`: the
handler computes the report's records, summary and refutations from the
parsed flags, the CSV projection yields the header and then one row per
record, and the table renderer yields the table lines.  `main` wraps the
handler's result in the report envelope: "command" is the subcommand name
and "parameters" echoes the parsed flags in parser order, all but --format,
--out and --jobs, leaving out an optional flag that was not given.

Only `algebra` is imported at module level.  Each handler and --jobs worker
imports the layers it runs, and `_render` the module of its format, so a
process loads no layer its subcommand does not use; a handler that shares
work out with --jobs imports its layer before the workers are forked, and
they inherit it.

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
import os
import sys

from .algebra import (
    MILLER_RABIN_BOUND,
    TORI_SERIES,
    UnprovenPrimeError,
    is_prime,
    power_base,
    zsigmondy,
)

EXCEPTION_DETAIL_CAP = 200

# parsed attributes that are not echoed under "parameters"
_NOT_ECHOED = frozenset({"command", "format", "out", "jobs", "handler", "csv", "table"})


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


def _poly_coeffs(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _flat(*columns: str, key: str = "records"):
    """The CSV projection of reports whose report[key] entries carry every
    column as a field."""

    def project(report: dict) -> list[list]:
        return [list(columns)] + [[r[c] for c in columns] for r in report[key]]

    return project


def _share(fn, keys):
    """fn over keys in order up to the first Exception: the results before
    it, and that exception or None."""
    results = []
    for key in keys:
        try:
            results.append(fn(key))
        except Exception as exc:
            return results, exc
    return results, None


def _parallel_map(fn, keys, jobs):
    """[fn(k) for k in keys], shared out among up to `jobs` processes.

    Worker w computes keys[w::workers]: over verify-hook-formula's n-major
    keys, a worker keeps to the same primes when the number of primes is a
    multiple of the worker count, so its caches serve only its own keys.  The
    parent computes share 0 itself and forks a child for each other share,
    which sends its results back pickled through a pipe.  Each share stops at
    its first Exception; the parent reads every share, then raises the one at
    the lowest key index, as the serial loop would.  The CLI starts no
    threads, so forking it is safe; without os.fork the run is serial.
    """
    # every worker is forked up front, so ask for no more workers than there
    # are keys or CPUs this process may run on
    if not hasattr(os, "fork"):
        cpus = 1
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(keys), cpus)
    if workers <= 1:
        return [fn(k) for k in keys]
    import pickle
    import signal

    children, running, lost = [], set(), []
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the child sends its share and exits: it never returns into
                # main, and flushes no buffer it inherited
                status = 1
                try:
                    os.close(read_end)
                    results, exc = _share(fn, keys[w::workers])
                    try:
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                    with open(write_end, "wb") as pipe:
                        pickle.dump((results, exc), pipe)
                    status = 0
                finally:
                    os._exit(status)
            running.add(pid)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        shares = [_share(fn, keys[::workers])]
        for pid, pipe in children:
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.discard(pid)
            if status:
                lost.append(
                    f"worker {pid} ended without its results (wait status {status})"
                )
            else:
                shares.append(pickle.loads(data))
    finally:
        for _, pipe in children:
            pipe.close()
        # only a parent interrupted by something other than a share's
        # Exception leaves a child unreaped
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if lost:
        raise RuntimeError(lost[0])
    failed = [(w + len(res) * workers, exc) for w, (res, exc) in enumerate(shares) if exc]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = [None] * len(keys)
    for w, (res, _) in enumerate(shares):
        out[w::workers] = res
    return out


# ---------------------------------------------------------------------------
# scan-blocks


def _scan_blocks_worker(key):
    from .blocks import blocks_an, blocks_sn, is_ehzd, to_json_record

    group, n, p, ehzd_only = key
    build = blocks_sn if group == "sym" else blocks_an
    # a refutation is listed even under --ehzd-only
    return [
        to_json_record(blk)
        for blk in build(n, p)
        if not ehzd_only or blk.classification == "failure" or is_ehzd(blk)
    ]


def _cmd_scan_blocks(args) -> dict:
    lo, hi = args.n_range
    if args.group == "alt" and lo < 2:
        raise UsageError(f"alt ranges must start at 2 or more, got '{lo}..{hi}'")
    from . import blocks  # noqa: F401  (loaded before the workers are forked)

    keys = [(args.group, n, args.p, args.ehzd_only) for n in range(lo, hi + 1)]
    chunks = _parallel_map(_scan_blocks_worker, keys, args.jobs)
    records = [rec for chunk in chunks for rec in chunk]
    refutations = [rec for rec in records if rec["refutation"]]
    return {
        "records": records,
        "summary": {
            "blocks": len(records),
            "ehzd_blocks": sum(1 for r in records if r["ehzd"]),
            "refutations": len(refutations),
        },
        "refutations": refutations,
    }


def _csv_scan_blocks(report: dict):
    yield [
        "group", "n", "p", "core", "weight", "defect", "ehzd",
        "classification", "partition", "degree", "height",
    ]
    for rec in report["records"]:
        for m in rec["members"]:
            yield [
                rec["group"], rec["n"], rec["p"], rec["core"],
                rec["weight"], rec["defect"], rec["ehzd"],
                rec["classification"], m["partition"], m["degree"],
                m["height"],
            ]


def _table_scan_blocks(report: dict):
    p = report["parameters"]
    yield (
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
        yield (
            f"n={rec['n']} core={rec['core']} w={rec['weight']} "
            f"defect={rec['defect']} case={rec['classification']} "
            f"ehzd={'yes' if rec['ehzd'] else 'no'} hz-degrees={hz}{wit}{flag}"
        )
    s = report["summary"]
    yield (
        f"blocks {s['blocks']}, height-zero-equal {s['ehzd_blocks']}, "
        f"refutations {s['refutations']}"
    )


# ---------------------------------------------------------------------------
# verify-hook-formula


def _hook_worker(key):
    from .blocks import quotient_congruence, relative_hook_degree
    from .partitions import degree, enumerate_partitions, format_partition

    n, p = key
    equality_failures = []
    # the report lists the first EXCEPTION_DETAIL_CAP exceptions in key
    # order, so no key needs the details of more than that many
    exceptions = []
    plus = minus = checks = missed = 0
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
            missed += 1
            if missed <= EXCEPTION_DETAIL_CAP:
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
        "exceptions": missed,
    }
    return row, equality_failures, exceptions


def _cmd_verify_hook(args) -> dict:
    from . import blocks  # noqa: F401  (loaded before the workers are forked)

    keys = [(n, p) for n in range(1, args.n_max + 1) for p in args.primes]
    results = _parallel_map(_hook_worker, keys, args.jobs)
    rows = [row for row, _, _ in results]
    equality_failures = [f for _, fs, _ in results for f in fs]
    exceptions = [e for _, _, es in results for e in es]
    shown = exceptions[:EXCEPTION_DETAIL_CAP]
    return {
        "records": rows,
        "summary": {
            "checks": sum(r["partitions"] for r in rows),
            "equality_failures": len(equality_failures),
            "congruence_plus": sum(r["plus"] for r in rows),
            "congruence_minus": sum(r["minus"] for r in rows),
            "congruence_exceptions": sum(r["exceptions"] for r in rows),
            "exceptions_listed": len(shown),
        },
        "refutations": equality_failures + shown,
    }


def _table_verify_hook(report: dict):
    for r in report["records"]:
        yield (
            f"n={r['n']} p={r['p']} partitions={r['partitions']} "
            f"equality-failures={r['equality_failures']} plus={r['plus']} "
            f"minus={r['minus']} exceptions={r['exceptions']}"
        )
    s = report["summary"]
    yield (
        f"{s['checks']} checks, {s['equality_failures']} equality failures, "
        f"sign tally +{s['congruence_plus']}/-{s['congruence_minus']}, "
        f"{s['congruence_exceptions']} congruence exceptions"
    )


# ---------------------------------------------------------------------------
# verify-wreath


def _wreath_worker(key):
    from math import factorial

    from .partitions import format_partition
    from .wreath import (
        enumerate_multipartitions,
        schur_specialize_roots,
        symbol_of,
        wreath_degree,
    )

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
    from . import wreath  # noqa: F401  (loaded before the workers are forked)

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
        "records": rows,
        "summary": {
            "pairs": len(rows),
            "characters": sum(r["characters"] for r in rows),
            "mismatches": len(mismatches),
        },
        "refutations": mismatches + bad_sums,
    }


def _table_verify_wreath(report: dict):
    for r in report["records"]:
        yield (
            f"e={r['e']} r={r['r']} characters={r['characters']} "
            f"sum-squares={'ok' if r['sum_squares_ok'] else 'FAIL'} "
            f"degrees={'ok' if r['degrees_match'] else 'FAIL'}"
        )
    s = report["summary"]
    yield (
        f"{s['pairs']} pairs, {s['characters']} characters, "
        f"{s['mismatches']} mismatches"
    )


# ---------------------------------------------------------------------------
# unipotent


def _cmd_unipotent(args) -> dict:
    if args.collisions and args.q is None:
        raise UsageError("--collisions requires --q")
    from .partitions import degree, format_partition
    from .unipotent import degree_collisions, unipotent_degrees_gl

    records = []
    value_at_q = {}
    for entry in unipotent_degrees_gl(args.n):
        rec = {
            "partition": format_partition(entry.partition),
            "coefficients": _poly_coeffs(entry.poly),
            "value_at_1": str(degree(entry.partition)),
        }
        if args.q is not None:
            rec["value_at_q"] = value_at_q[entry.partition] = str(entry.poly(args.q))
        records.append(rec)
    collisions = []
    if args.collisions:
        for first, second in degree_collisions(args.n, args.q):
            collisions.append(
                {
                    "first": format_partition(first),
                    "second": format_partition(second),
                    "value": value_at_q[first],
                }
            )
    return {
        "records": records,
        "collisions": collisions,
        "summary": {"partitions": len(records), "collisions": len(collisions)},
        "refutations": [],
    }


def _csv_unipotent(report: dict):
    if report["parameters"]["collisions"]:
        return _flat("first", "second", "value", key="collisions")(report)
    value_at_q = ["value_at_q"] if "q" in report["parameters"] else []
    return [["partition", "coefficients", "value_at_1", *value_at_q]] + [
        [r["partition"], " ".join(r["coefficients"]), r["value_at_1"]]
        + [r[c] for c in value_at_q]
        for r in report["records"]
    ]


def _table_unipotent(report: dict):
    has_q = "q" in report["parameters"]
    for r in report["records"]:
        line = f"{r['partition']} degree={r['value_at_1']}"
        if has_q:
            line += f" value={r['value_at_q']}"
        yield line + " coeffs=" + ",".join(r["coefficients"])
    if report["parameters"]["collisions"]:
        for c in report["collisions"]:
            yield f"collision {c['first']} {c['second']} value={c['value']}"
        if not report["collisions"]:
            yield "no collisions"


# ---------------------------------------------------------------------------
# hll-check


def _cmd_hll_check(args) -> dict:
    if args.d > args.n:
        raise UsageError(f"--d must be at most --n, got {args.d} > {args.n}")
    from .partitions import format_partition
    from .unipotent import hll_check_gl

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
        "records": records,
        "summary": {
            "series": len(records),
            "members": members_total,
            "failures": len(refutations),
        },
        "refutations": refutations,
    }


def _csv_hll_check(report: dict):
    yield ["core", "weight", "partition", "constant", "expected", "ok", "reason"]
    for series in report["records"]:
        for m in series["members"]:
            yield [
                series["core"], series["weight"], m["partition"],
                m["display"], m["expected"], m["ok"], m["reason"] or "",
            ]


def _table_hll_check(report: dict):
    for series in report["records"]:
        yield f"series core={series['core']} weight={series['weight']}"
        for m in series["members"]:
            status = "ok" if m["ok"] else f"FAIL ({m['reason']})"
            yield (
                f"  {m['partition']} constant={m['display']} "
                f"expected={m['expected']} {status}"
            )
    s = report["summary"]
    yield f"{s['series']} series, {s['members']} members, {s['failures']} failures"


# ---------------------------------------------------------------------------
# speceq


def _cmd_speceq(args) -> dict:
    from .unipotent import speceq_search

    witnesses = speceq_search(args.q_max, args.m_max, args.exp_bound, args.n_bound)
    records = [w._asdict() for w in witnesses]
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
        "records": records,
        "summary": {"witnesses": len(records), "by_m": summary_rows},
        "refutations": [],
    }


def _csv_speceq(report: dict):
    yield ["q", "m", "exponents", "n1", "n2", "part_a", "part_b", "full_support"]
    for r in report["records"]:
        yield [
            r["q"], r["m"], " ".join(str(a) for a in r["exponents"]),
            r["n1"], r["n2"], r["part_a"], r["part_b"], r["full_support"],
        ]


def _table_speceq(report: dict):
    for r in report["records"]:
        tags = [t for t, on in (("a", r["part_a"]), ("b", r["part_b"])) if on]
        full = " full" if r["full_support"] else ""
        yield (
            f"q={r['q']} m={r['m']} a=({','.join(str(x) for x in r['exponents'])}) "
            f"n1={r['n1']} n2={r['n2']} part={'/'.join(tags)}{full}"
        )
    for row in report["summary"]["by_m"]:
        yield (
            f"m={row['m']}: part-b q={row['part_b_q']} "
            f"full-support q={row['part_b_full_support_q']} "
            f"part-a q={row['part_a_q']}"
        )


# ---------------------------------------------------------------------------
# tori


def _cmd_tori(args) -> dict:
    from .unipotent import tori_check, tori_entry

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
        "l1": report.l1,
        "l2": report.l2,
        "l1_divides": report.divides1,
        "l2_divides": report.divides2,
        "missing": list(report.missing),
    }
    refutations = [
        {"series": entry.series, "n": entry.n, "q": args.q, "torus": i}
        for i in report.failures
    ]
    return {
        "records": [record],
        "summary": {
            "missing_primes": len(report.missing),
            "failures": len(refutations),
        },
        "refutations": refutations,
    }


def _table_tori(report: dict):
    r = report["records"][0]
    yield f"series {r['series']} n={r['n']} q={r['q']}"
    for i in (1, 2):
        prime = r[f"l{i}"]
        if prime is None:
            tail = "no primitive prime"
        else:
            tail = f"l={prime} divides={'yes' if r[f'l{i}_divides'] else 'NO'}"
        yield f"  T{i} order {r[f't{i}_value']} (m={r[f'm{i}']}): {tail}"


# ---------------------------------------------------------------------------
# zsigmondy


def _cmd_zsigmondy(args) -> dict:
    prime = zsigmondy(args.q, args.m)
    return {
        "records": [
            {"q": args.q, "m": args.m, "prime": prime, "exists": prime is not None}
        ],
        "summary": {"exists": prime is not None},
        "refutations": [],
    }


def _table_zsigmondy(report: dict):
    r = report["records"][0]
    if r["prime"] is None:
        yield f"q={r['q']} m={r['m']}: no primitive prime divisor"
    else:
        yield f"q={r['q']} m={r['m']}: {r['prime']}"


# ---------------------------------------------------------------------------
# rendering and output


def _json(value, indent: str, quote) -> str:
    """The text json.dumps(value, indent=2) gives at this depth, for the
    report's own types: dict with str keys, list, tuple, str,
    bool, int and None; quote is json's C encode_basestring_ascii.  Each
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
        from json.encoder import encode_basestring_ascii

        return _json(report, "", encode_basestring_ascii) + "\n"
    # the JSON writer's type check, unquoted: no format prints an inexact number
    _json(report, "", str)
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(args.csv(report))
        return buf.getvalue()
    return "\n".join(args.table(report)) + "\n"


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
    p.set_defaults(
        handler=_cmd_scan_blocks, csv=_csv_scan_blocks, table=_table_scan_blocks
    )

    p = sub.add_parser(
        "verify-hook-formula", parents=[common],
        help="exercise the relative degree formula and its congruence",
    )
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--primes", type=_primes, required=True,
                   help="comma list of distinct primes, e.g. 2,3,5,7")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(
        handler=_cmd_verify_hook,
        csv=_flat(
            "n", "p", "partitions", "equality_failures", "plus", "minus", "exceptions",
        ),
        table=_table_verify_hook,
    )

    p = sub.add_parser(
        "verify-wreath", parents=[common],
        help="check wreath product degrees against root-of-unity values",
    )
    p.add_argument("--e-max", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(
        handler=_cmd_verify_wreath,
        csv=_flat("e", "r", "characters", "sum_squares_ok", "degrees_match"),
        table=_table_verify_wreath,
    )

    p = sub.add_parser(
        "unipotent", parents=[common],
        help="degree polynomials, optionally with values and collisions",
    )
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--q", type=_prime_power, default=None)
    p.add_argument("--collisions", action="store_true")
    p.set_defaults(handler=_cmd_unipotent, csv=_csv_unipotent, table=_table_unipotent)

    p = sub.add_parser(
        "hll-check", parents=[common],
        help="reduce degree polynomials against their series modulo Phi_d",
    )
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_hll_check, csv=_csv_hll_check, table=_table_hll_check)

    p = sub.add_parser(
        "speceq", parents=[common],
        help="enumerate identities n1 = n2 * prod Phi_i(q)^a_i",
    )
    p.add_argument("--q-max", type=_base_int, required=True)
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--exp-bound", type=_positive_int, required=True)
    p.add_argument("--n-bound", type=_positive_int, default=120)
    p.set_defaults(handler=_cmd_speceq, csv=_csv_speceq, table=_table_speceq)

    p = sub.add_parser(
        "tori", parents=[common],
        help="torus orders for one series with primitive prime checks",
    )
    p.add_argument("--series", choices=TORI_SERIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_prime_power, required=True)
    p.set_defaults(
        handler=_cmd_tori,
        csv=_flat(
            "series", "n", "q", "t1_value", "t2_value", "m1", "m2",
            "l1", "l2", "l1_divides", "l2_divides",
        ),
        table=_table_tori,
    )

    p = sub.add_parser(
        "zsigmondy", parents=[common],
        help="smallest primitive prime divisor of q^m - 1",
    )
    p.add_argument("--q", type=_base_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(
        handler=_cmd_zsigmondy,
        csv=_flat("q", "m", "prime", "exists"),
        table=_table_zsigmondy,
    )

    return parser


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
            **args.handler(args),
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
