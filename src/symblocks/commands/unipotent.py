"""unipotent: the unipotent degree polynomials of GL_n, optionally with
their values at q and the partitions whose values collide."""

from __future__ import annotations

from .. import partitions, unipotent
from ..cli import UsageError, _flat


def report(args) -> dict:
    if args.collisions and args.q is None:
        raise UsageError("--collisions requires --q")
    records = []
    value_at_q = {}
    for entry in unipotent.unipotent_degrees_gl(args.n):
        rec = {
            "partition": partitions.format_partition(entry.partition),
            "coefficients": [str(c) for c in entry.poly.coeffs],
            "value_at_1": str(partitions.degree(entry.partition)),
        }
        if args.q is not None:
            rec["value_at_q"] = value_at_q[entry.partition] = str(entry.poly(args.q))
        records.append(rec)
    collisions = []
    if args.collisions:
        for first, second in unipotent.degree_collisions(args.n, args.q):
            collisions.append(
                {
                    "first": partitions.format_partition(first),
                    "second": partitions.format_partition(second),
                    "value": value_at_q[first],
                }
            )
    return {
        "records": records,
        "collisions": collisions,
        "summary": {"partitions": len(records), "collisions": len(collisions)},
        "refutations": [],
    }


def csv_rows(report: dict):
    if report["parameters"]["collisions"]:
        return _flat("first", "second", "value", key="collisions")(report)
    value_at_q = ["value_at_q"] if "q" in report["parameters"] else []
    return [["partition", "coefficients", "value_at_1", *value_at_q]] + [
        [r["partition"], " ".join(r["coefficients"]), r["value_at_1"]]
        + [r[c] for c in value_at_q]
        for r in report["records"]
    ]


def table_lines(report: dict):
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
