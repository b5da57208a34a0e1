"""Record the stdout sha256 and exit status of every benchmark command.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json with one entry per pool instance of every
workload, plus the set-up probe.  Each command also runs with --jobs 1,
as the traced run does, and must give the same bytes.  Re-record only when
a change to the reports is intended and explained.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN_PATH, SETUP_COMMAND, WORKLOADS, key, run_process, symblocks, with_jobs_one


def main() -> int:
    argvs = {SETUP_COMMAND}
    for slots in WORKLOADS.values():
        for slot in slots:
            argvs.update(slot.pool)
    golden = {}
    for argv in sorted(argvs):
        outcome = run_process(symblocks(argv))
        serial = run_process(symblocks(with_jobs_one(argv)))
        if (serial.sha256, serial.status) != (outcome.sha256, outcome.status):
            print(f"error: {key(argv)} differs under --jobs 1", file=sys.stderr)
            return 1
        golden[key(argv)] = {"sha256": outcome.sha256, "exit": outcome.status}
        print(f"{outcome.wall_s:7.2f} s  exit {outcome.status}  {key(argv)}", flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
