"""tori: the two torus orders of one series and rank, with their primitive
prime checks at q."""

from __future__ import annotations

from .. import unipotent
from ..cli import UsageError, _flat


def report(args) -> dict:
    try:
        entry = unipotent.tori_entry(args.series, args.n)
    except ValueError as exc:  # a rank outside the series, before any work
        raise UsageError(str(exc)) from None
    check = unipotent.tori_check(entry, args.q)
    record = {
        "series": entry.series,
        "n": entry.n,
        "q": args.q,
        "t1_coefficients": [str(c) for c in entry.t1.coeffs],
        "t2_coefficients": [str(c) for c in entry.t2.coeffs],
        "t1_value": str(check.t1_value),
        "t2_value": str(check.t2_value),
        "m1": entry.m1,
        "m2": entry.m2,
        "l1": check.l1,
        "l2": check.l2,
        "l1_divides": check.divides1,
        "l2_divides": check.divides2,
        "missing": list(check.missing),
    }
    refutations = [
        {"series": entry.series, "n": entry.n, "q": args.q, "torus": i}
        for i in check.failures
    ]
    return {
        "records": [record],
        "summary": {
            "missing_primes": len(check.missing),
            "failures": len(refutations),
        },
        "refutations": refutations,
    }


csv_rows = _flat(
    "series", "n", "q", "t1_value", "t2_value", "m1", "m2",
    "l1", "l2", "l1_divides", "l2_divides",
)


def table_lines(report: dict):
    r = report["records"][0]
    yield f"series {r['series']} n={r['n']} q={r['q']}"
    for i in (1, 2):
        prime = r[f"l{i}"]
        if prime is None:
            tail = "no primitive prime"
        else:
            tail = f"l={prime} divides={'yes' if r[f'l{i}_divides'] else 'NO'}"
        yield f"  T{i} order {r[f't{i}_value']} (m={r[f'm{i}']}): {tail}"
