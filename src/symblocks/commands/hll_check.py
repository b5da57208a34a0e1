"""hll-check: the degree polynomials of GL_n reduced against their d-series
modulo Phi_d, one record per series."""

from __future__ import annotations

from .. import partitions, unipotent
from ..cli import UsageError


def report(args) -> dict:
    if args.d > args.n:
        raise UsageError(f"--d must be at most --n, got {args.d} > {args.n}")
    fmt = partitions.format_partition
    records = []
    refutations = []
    members_total = 0
    for series in unipotent.hll_check_gl(args.n, args.d).series:
        members = []
        for m in series.members:
            members_total += 1
            entry = {
                "partition": fmt(m.partition),
                "quotient": [fmt(c) for c in m.quotient],
                "constant": None if m.constant is None else str(m.constant),
                "display": m.constant_str,
                "expected": m.expected,
                "ok": m.ok,
                "reason": m.reason,
            }
            members.append(entry)
            if not m.ok:
                refutations.append({"core": fmt(series.core), **entry})
        records.append(
            {
                "core": fmt(series.core),
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


def csv_rows(report: dict):
    yield ["core", "weight", "partition", "constant", "expected", "ok", "reason"]
    for series in report["records"]:
        for m in series["members"]:
            yield [
                series["core"], series["weight"], m["partition"],
                m["display"], m["expected"], m["ok"], m["reason"] or "",
            ]


def table_lines(report: dict):
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
