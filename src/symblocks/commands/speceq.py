"""speceq: the identities n1 = n2 * prod Phi_i(q)^a_i within the bounds."""

from __future__ import annotations

from .. import unipotent


def report(args) -> dict:
    witnesses = unipotent.speceq_search(
        args.q_max, args.m_max, args.exp_bound, args.n_bound
    )
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


def csv_rows(report: dict):
    yield ["q", "m", "exponents", "n1", "n2", "part_a", "part_b", "full_support"]
    for r in report["records"]:
        yield [
            r["q"], r["m"], " ".join(str(a) for a in r["exponents"]),
            r["n1"], r["n2"], r["part_a"], r["part_b"], r["full_support"],
        ]


def table_lines(report: dict):
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
