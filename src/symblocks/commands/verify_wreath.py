"""verify-wreath: wreath product degrees against their root-of-unity
values, for every (e, r) up to --e-max and --r-max."""

from __future__ import annotations

from math import factorial

from .. import partitions, wreath
from ..cli import _flat
from . import _jobs


def _worker(key):
    e, r = key
    order = e**r * factorial(r)
    sum_squares = 0
    mismatches = []
    for nu in partitions.enumerate_multipartitions(e, r):
        d = wreath.wreath_degree(nu)
        sum_squares += d * d
        f = wreath.schur_specialize_roots(wreath.symbol_of(nu))
        if abs(f) * order != d:
            mismatches.append(
                {
                    "e": e,
                    "r": r,
                    "multipartition": [partitions.format_partition(c) for c in nu],
                    "value": str(f),
                    "degree": str(d),
                }
            )
    return {
        "e": e,
        "r": r,
        "characters": len(partitions.enumerate_multipartitions(e, r)),
        "sum_squares_ok": sum_squares == order,
        "degrees_match": not mismatches,
    }, mismatches


def report(args) -> dict:
    keys = [(e, r) for e in range(1, args.e_max + 1) for r in range(1, args.r_max + 1)]
    results = _jobs.parallel_map(_worker, keys, args.jobs)
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


csv_rows = _flat("e", "r", "characters", "sum_squares_ok", "degrees_match")


def table_lines(report: dict):
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
