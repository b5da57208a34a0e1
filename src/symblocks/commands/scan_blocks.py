"""scan-blocks: the p-blocks of S_n or A_n over a range of n."""

from __future__ import annotations

from .. import blocks
from ..cli import UsageError
from . import _jobs


def _worker(key):
    group, n, p, ehzd_only = key
    build = blocks.blocks_sn if group == "sym" else blocks.blocks_an
    # a refutation is listed even under --ehzd-only
    return [
        blocks.to_json_record(blk)
        for blk in build(n, p)
        if not ehzd_only or blk.classification == "failure" or blocks.is_ehzd(blk)
    ]


def report(args) -> dict:
    lo, hi = args.n_range
    if args.group == "alt" and lo < 2:
        raise UsageError(f"alt ranges must start at 2 or more, got '{lo}..{hi}'")
    keys = [(args.group, n, args.p, args.ehzd_only) for n in range(lo, hi + 1)]
    chunks = _jobs.parallel_map(_worker, keys, args.jobs)
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


def csv_rows(report: dict):
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


def table_lines(report: dict):
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
