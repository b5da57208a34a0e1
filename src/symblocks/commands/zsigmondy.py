"""zsigmondy: the smallest primitive prime divisor of q^m - 1."""

from __future__ import annotations

from .. import algebra
from ..cli import _flat


def report(args) -> dict:
    prime = algebra.zsigmondy(args.q, args.m)
    return {
        "records": [
            {"q": args.q, "m": args.m, "prime": prime, "exists": prime is not None}
        ],
        "summary": {"exists": prime is not None},
        "refutations": [],
    }


csv_rows = _flat("q", "m", "prime", "exists")


def table_lines(report: dict):
    r = report["records"][0]
    if r["prime"] is None:
        yield f"q={r['q']} m={r['m']}: no primitive prime divisor"
    else:
        yield f"q={r['q']} m={r['m']}: {r['prime']}"
