"""verify-hook-formula: the relative hook formula and its congruence, for
every partition of n <= --n-max at each prime.

Each (n, p) key counts its checks in `_worker` and keeps only the
partitions of its first EXCEPTION_DETAIL_CAP congruence exceptions, so a
`--jobs` child sends back plain tuples.  `report` takes the first
EXCEPTION_DETAIL_CAP of those in key order and asks
`blocks.quotient_congruence` again for each one it lists."""

from __future__ import annotations

from itertools import islice

from .. import blocks, partitions
from ..cli import _flat
from . import _jobs

EXCEPTION_DETAIL_CAP = 200


def _worker(key):
    n, p = key
    equality_failures = []
    # the report lists the first EXCEPTION_DETAIL_CAP exceptions in key
    # order, so no key keeps more than that many partitions
    exceptions = []
    plus = minus = checks = missed = 0
    for pi in partitions.enumerate_partitions(n):
        checks += 1
        if blocks.relative_hook_degree(pi, p) != partitions.degree(pi):
            equality_failures.append(
                {"n": n, "p": p, "partition": partitions.format_partition(pi)}
            )
        rep = blocks.quotient_congruence(pi, p)
        if rep.holds_plus:
            plus += 1
        if rep.holds_minus:
            minus += 1
        if not rep.holds:
            missed += 1
            if missed <= EXCEPTION_DETAIL_CAP:
                exceptions.append(pi)
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


def report(args) -> dict:
    keys = [(n, p) for n in range(1, args.n_max + 1) for p in args.primes]
    results = _jobs.parallel_map(_worker, keys, args.jobs)
    rows = [row for row, _, _ in results]
    equality_failures = [f for _, fs, _ in results for f in fs]
    # only the exceptions that are listed are checked again and formatted
    listed = ((key, pi) for key, (_, _, es) in zip(keys, results) for pi in es)
    shown = []
    for (n, p), pi in islice(listed, EXCEPTION_DETAIL_CAP):
        rep = blocks.quotient_congruence(pi, p)
        shown.append(
            {"n": n, "p": p, "partition": partitions.format_partition(pi),
             "ratio": str(rep.ratio), "lhs": rep.lhs, "rhs": rep.rhs}
        )
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


csv_rows = _flat(
    "n", "p", "partitions", "equality_failures", "plus", "minus", "exceptions",
)


def table_lines(report: dict):
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
