"""End-to-end benchmark of the symblocks CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command of the workload runs as its
own `python -m symblocks ... --format json` process with PYTHONPATH=src,
one at a time; the only parallelism is `--jobs 2` inside one command.  The
seed picks each command's instance from a pool of near-equal cost.  Every
process's stdout sha256 and exit status are checked against golden.json,
recorded from the code this benchmark was defined on (verify-hook-formula
and hll-check exit 1 by design: they report refutations).

--trace 0 repeats passes over the workload while the next pass is expected
to end within S seconds.  It reports end-to-end metrics, each the median
over passes: the pass's summed command wall times, each command group's
summed wall time (spawn to exit), peak RSS, and the wall time of a no-work
invocation (set-up).  Every timing is scaled for the host's speed by a
reference task run just before and just after it (see REFERENCE_NOMINAL_S).
--trace 1 runs each command with --jobs 1
twice per pass, untraced and through trace_main.py, and reports per-layer
metrics from the spans.  Human-readable detail goes to stdout first; the
last line is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
TRACE_MAIN = BENCH_DIR / "trace_main.py"

SETUP_COMMAND = ("zsigmondy", "--q", "2", "--m", "6")
SETUP_PROBES_PER_PASS = 2
COMMAND_TIMEOUT_S = 150

# The host's speed swings by up to 2x in phases of seconds to minutes, and
# every process slows alike.  A fixed task that uses nothing from symblocks
# therefore runs after every timed command (and after each pass's set-up
# probes).  A command's wall time is scaled by REFERENCE_NOMINAL_S over the
# mean wall time of the task's runs just before and just after it: timings
# read as seconds on a host where the reference takes REFERENCE_NOMINAL_S.
REFERENCE = BENCH_DIR / "host_reference.py"
REFERENCE_OUTPUT = b"5604 291802 316760\n"
REFERENCE_NOMINAL_S = 0.22


@dataclass(frozen=True)
class Slot:
    """One command position of a workload.

    The seed picks one argv from `pool`.  `name` is the command's report
    name; `group` names the end-to-end metric `<group>.wall_s`, the sum of
    the wall times of the slots in that group.
    """

    group: str
    name: str
    pool: tuple[tuple[str, ...], ...]


def _argvs(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines)


# Pools hold instances of near-equal cost.  Scan ranges differ only in
# their cheap low end; unipotent values differ only in q; the zsigmondy
# pairs all trial-divide a cofactor below 2**63 up to 7.0e6-7.3e6.
# Commands are kept short (about 0.4-1.2 s) so that a run holds many passes
# and its medians stand on many samples.
WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "blocks-scan": (
        Slot("group1", "hook", _argvs(
            "verify-hook-formula --n-max 20 --primes 2,3,5,7 --jobs 2")),
        Slot("group2", "scan-sym", _argvs(*(
            f"scan-blocks --group sym --n-range {lo}..26 --p 2" for lo in range(1, 6)))),
        Slot("group2", "scan-alt", _argvs(*(
            f"scan-blocks --group alt --n-range {lo}..26 --p 3" for lo in range(2, 7)))),
    ),
    "gl-poly": (
        Slot("group1", "unipotent", _argvs(*(
            f"unipotent --n 14 --q {q} --collisions" for q in (2, 3, 4, 5, 7, 8, 9)))),
        Slot("group2", "hll", _argvs("hll-check --n 12 --d 4")),
        Slot("group2", "hll", _argvs("hll-check --n 12 --d 3")),
    ),
    "cyclo-factor": (
        Slot("group1", "wreath", _argvs("verify-wreath --e-max 4 --r-max 3")),
        Slot("group2", "zsigmondy", _argvs(
            "zsigmondy --q 52 --m 15", "zsigmondy --q 79 --m 30")),
        Slot("group2", "zsigmondy", _argvs(
            "zsigmondy --q 70 --m 30", "zsigmondy --q 42 --m 21")),
    ),
}


@dataclass(frozen=True)
class Command:
    slot: Slot
    argv: tuple[str, ...]


def choose(workload: str, seed: int) -> list[Command]:
    rng = random.Random(f"{workload}:{seed}")
    return [Command(slot, rng.choice(slot.pool)) for slot in WORKLOADS[workload]]


def key(argv) -> str:
    return " ".join(argv)


def with_jobs_one(argv: tuple[str, ...]) -> tuple[str, ...]:
    """Same command in-process: spans in pool workers would be lost."""
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = "1"
    return tuple(out)


# ---------------------------------------------------------------------------
# running one process


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    sha256: str
    stdout: bytes


def run_process(cmd: list[str]) -> Outcome:
    """Spawn, read stdout, reap with wait4 so rusage covers pool workers."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, wstatus, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: end the child before leaving
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        status=proc.returncode,
        sha256=hashlib.sha256(out).hexdigest(),
        stdout=out,
    )


def symblocks(argv) -> list[str]:
    return [sys.executable, "-m", "symblocks", *argv, "--format", "json"]


def traced(argv, summary: Path) -> list[str]:
    return [sys.executable, str(TRACE_MAIN), str(summary), "--", *argv,
            "--format", "json"]


class Checker:
    """Counts processes whose digest or exit status misses the record."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def check(self, argv, outcome: Outcome) -> None:
        self.attempted += 1
        rec = self.golden.get(key(argv))
        ok = (rec is not None and outcome.sha256 == rec["sha256"]
              and outcome.status == rec["exit"])
        if not ok:
            self.failed += 1
            print(f"MISMATCH {key(argv)}: exit {outcome.status}, "
                  f"sha256 {outcome.sha256}, expected {rec}", flush=True)


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            rank = max(1, round(pct / 100 * n))
            return f"p{pct} {sorted(values)[rank - 1]:.6g}"
    return "no percentile with 10 samples beyond"


def describe(name: str, unit: str, values) -> str:
    return (f"{name:<24} median {median(values):.6g} {unit}, {tail(values)}, "
            f"n={len(values)}")


def passes_within(seconds: float):
    """Count passes while the next one is expected to end within `seconds`.

    The first pass always runs.
    """
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def host_record() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def reference_s() -> float:
    """Wall time of the reference task, whose output is checked."""
    ref = run_process([sys.executable, str(REFERENCE)])
    if ref.status != 0 or ref.stdout != REFERENCE_OUTPUT:
        raise SystemExit(f"error: host_reference.py printed {ref.stdout!r}, "
                         f"exit {ref.status}")
    return ref.wall_s


def measure(commands: list[Command], seconds: float, checker: Checker) -> dict:
    warm = run_process(symblocks(SETUP_COMMAND))  # compiles bytecode once
    checker.check(SETUP_COMMAND, warm)
    reference_s()  # warm-up
    last_ref = reference_s()

    def reference_around() -> float:
        """Run the reference; return its mean over the runs just before and
        just after the item timed since the last call."""
        nonlocal last_ref
        ref, last_ref = last_ref, reference_s()
        return (ref + last_ref) / 2

    setup, setup_raw, passes = [], [], []
    for _ in passes_within(seconds):
        probes = [run_process(symblocks(SETUP_COMMAND))
                  for _ in range(SETUP_PROBES_PER_PASS)]
        scale = REFERENCE_NOMINAL_S / reference_around()
        for probe in probes:
            checker.check(SETUP_COMMAND, probe)
            setup.append(probe.wall_s * scale)
            setup_raw.append(probe.wall_s)
        outcomes, refs = [], []
        for cmd in commands:
            outcome = run_process(symblocks(cmd.argv))
            refs.append(reference_around())
            checker.check(cmd.argv, outcome)
            outcomes.append(outcome)
        passes.append((outcomes, [REFERENCE_NOMINAL_S / r for r in refs]))
        # Raw times and the references make a slow host phase visible.
        print(f"pass {len(passes)}: wall {sum(o.wall_s for o in outcomes):.4f} s "
              f"({' '.join(f'{o.wall_s:.4f}' for o in outcomes)}), "
              f"cpu {sum(o.cpu_s for o in outcomes):.4f} s, "
              f"reference {' '.join(f'{r:.4f}' for r in refs)} s", flush=True)

    walls = [sum(o.wall_s * k for o, k in zip(outs, ks)) for outs, ks in passes]
    lines = [describe("setup_s", "s", setup), describe("wall_s", "s", walls),
             describe("raw setup_s", "s", setup_raw),
             describe("raw wall_s", "s",
                      [sum(o.wall_s for o in outs) for outs, _ in passes]),
             describe("reference_s", "s",
                      [REFERENCE_NOMINAL_S / k for _, ks in passes for k in ks])]
    by_group: dict[str, list[float]] = {}
    by_name: dict[str, list[float]] = {}
    for i, cmd in enumerate(commands):
        lines.append(describe(f"{cmd.slot.name}[{i}].cpu_s", "s",
                              [outs[i].cpu_s for outs, _ in passes]))
        for table, label in ((by_group, cmd.slot.group), (by_name, cmd.slot.name)):
            acc = table.setdefault(label, [0.0] * len(passes))
            for j, (outs, ks) in enumerate(passes):
                acc[j] += outs[i].wall_s * ks[i]
    for label, values in {**by_name, **by_group}.items():
        lines.append(describe(f"{label}.wall_s", "s", values))
    rss = [max(o.rss_mb for o in outs) for outs, _ in passes]
    lines.append(describe("peak_rss_mb", "MB", rss))
    lines.append(f"{'fail_ratio':<24} {checker.failed / checker.attempted:.6g} "
                 f"ratio ({checker.failed} of {checker.attempted} processes)")
    print("\n".join(lines), flush=True)

    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup),
        "peak_rss_mb": median(rss),
    }
    for group, values in by_group.items():
        metrics[f"{group}.wall_s"] = median(values)
    return metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def layer_metrics(commands: list[Command], summaries: list[dict],
                  reports: list[bytes], overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass over the workload."""
    functions: dict[str, list[float]] = {}
    caches: dict[str, list[int]] = {}
    for s in summaries:
        for name, (calls, self_s) in s["functions"].items():
            acc = functions.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, (hits, misses, _) in s["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses

    def calls(fn):
        return functions.get(fn, [0, 0.0])[0]

    def self_s(fn):
        return functions.get(fn, [0, 0.0])[1]

    def layer_self(layer):
        return sum(v[1] for k, v in functions.items() if k.startswith(layer + "."))

    def hit_ratio(cache):
        hits, misses = caches.get(cache, [0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    checks = 0
    for report in reports:
        try:
            data = json.loads(report)
        except ValueError:  # a failed command; the checker has counted it
            continue
        if data["command"] == "verify-hook-formula":
            checks += data["summary"]["checks"]
    keys: dict[str, float] = {}
    for cmd, s in zip(commands, summaries):
        if "--jobs" in cmd.argv:
            for k, secs in s["block_keys"].items():
                keys[k] = keys.get(k, 0.0) + secs
    cache_entries = max(
        sum(size for name, (_, _, size) in s["caches"].items()
            if name.startswith("partitions."))
        for s in summaries
    )
    return {
        "algebra.self_s": layer_self("algebra"),
        "algebra.poly_mul.calls": calls("algebra.Poly.__mul__"),
        "algebra.poly_mul.self_s": self_s("algebra.Poly.__mul__"),
        "algebra.poly_divrem.calls": calls("algebra.Poly.divrem"),
        "algebra.poly_divrem.self_s": self_s("algebra.Poly.divrem"),
        "algebra.cyc_mul.calls": calls("algebra.CycElt.__mul__"),
        "algebra.cyc_mul.self_s": self_s("algebra.CycElt.__mul__"),
        "algebra.cyc_inverse.calls": calls("algebra.CycElt.inverse"),
        "algebra.cyclotomic_poly.hit_ratio": hit_ratio("algebra.cyclotomic_poly"),
        "algebra.trial_factor.self_s": self_s("algebra.trial_factor"),
        "partitions.self_s": layer_self("partitions"),
        "partitions.core_and_quotient.calls": calls("partitions.core_and_quotient"),
        "partitions.core_and_quotient.self_s": self_s("partitions.core_and_quotient"),
        "partitions.core_and_quotient.per_check":
            calls("partitions.core_and_quotient") / checks if checks else 0.0,
        "partitions.combine.self_s": self_s("partitions.combine"),
        "partitions.degree.hit_ratio": hit_ratio("partitions.degree"),
        "partitions.hook_lengths.hit_ratio": hit_ratio("partitions.hook_lengths"),
        "partitions.cache_entries": cache_entries,
        "partitions.gl_degree_poly.calls": calls("partitions.gl_degree_poly"),
        "partitions.gl_degree_poly.self_s": self_s("partitions.gl_degree_poly"),
        "partitions.gl_degree_poly.hit_ratio": hit_ratio("partitions.gl_degree_poly"),
        "wreath.self_s": layer_self("wreath"),
        "wreath.schur_value.calls": calls("wreath.schur_value"),
        "wreath.schur_value.self_s": self_s("wreath.schur_value"),
        "wreath.wreath_degree.calls": calls("wreath.wreath_degree"),
        "blocks.self_s": layer_self("blocks"),
        "blocks.relative_hook_degree.self_s": self_s("blocks.relative_hook_degree"),
        "blocks.quotient_congruence.self_s": self_s("blocks.quotient_congruence"),
        "blocks.blocks_sn.self_s": self_s("blocks.blocks_sn"),
        "blocks.blocks_an.self_s": self_s("blocks.blocks_an"),
        "blocks.classify_sym.self_s": self_s("blocks.classify_sym"),
        "unipotent.self_s": layer_self("unipotent"),
        "unipotent.unipotent_degrees_gl.calls": calls("unipotent.unipotent_degrees_gl"),
        "unipotent.hll_check_gl.self_s": self_s("unipotent.hll_check_gl"),
        "unipotent.degree_collisions.self_s": self_s("unipotent.degree_collisions"),
        "cli.self_s": layer_self("cli"),
        "cli.report_bytes": sum(len(r) for r in reports),
        "cli.jobs.largest_key_share":
            max(keys.values()) / sum(keys.values()) if keys else 0.0,
        "trace.overhead_s": overhead_s,
    }


def measure_traced(commands: list[Command], seconds: float, checker: Checker,
                   units: dict[str, str]) -> dict:
    passes = []
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        for _ in passes_within(seconds):
            summaries, reports, overhead = [], [], 0.0
            for i, cmd in enumerate(commands):
                argv = with_jobs_one(cmd.argv)
                plain = run_process(symblocks(argv))
                checker.check(cmd.argv, plain)
                summary_path = scratch / f"summary-{len(passes)}-{i}.json"
                outcome = run_process(traced(argv, summary_path))
                checker.check(cmd.argv, outcome)
                if summary_path.is_file():
                    summaries.append(json.loads(summary_path.read_text(encoding="utf-8")))
                else:  # the command died; the checker has counted it
                    summaries.append({"functions": {}, "caches": {}, "block_keys": {}})
                reports.append(outcome.stdout)
                overhead += outcome.wall_s - plain.wall_s
            passes.append(layer_metrics(commands, summaries, reports, overhead))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    names = passes[0].keys()
    metrics = {name: median([p[name] for p in passes]) for name in names}
    for name in names:
        print(describe(name, units.get(name, ""), [p[name] for p in passes]),
              flush=True)
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "symblocks" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no symblocks source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    commands = choose(args.workload, args.seed)
    missing = [key(c.argv) for c in commands if key(c.argv) not in golden]
    if missing:
        print(f"error: no recorded output for {missing}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for cmd in commands:
        print(f"  {cmd.slot.group} [{cmd.slot.name}]: symblocks {key(cmd.argv)}")
    print("host at start " + json.dumps(host_record()), flush=True)
    checker = Checker(golden)
    if args.trace:
        wanted = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in wanted}
        values = measure_traced(commands, args.seconds, checker, units)
    else:
        values = measure(commands, args.seconds, checker)
        wanted = spec["end_to_end"]
    print("host at end " + json.dumps(host_record()), flush=True)
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
