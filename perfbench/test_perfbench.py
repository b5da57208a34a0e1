"""Self-test of the benchmark on tiny instances of each workload.

Each tiny command runs untraced (as the workload runs it) and, with
--jobs 1, untraced and traced; all three must print the same bytes and exit
alike.  Every per-layer metric that a workload is meant to move must then
read nonzero on that workload, so a wrapper that silently missed its
function (a stale ``from ... import`` binding, say) fails here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent / "run.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_run", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = bench
_SPEC.loader.exec_module(bench)

TINY = {
    "blocks-scan": (
        "verify-hook-formula --n-max 8 --primes 2,3 --jobs 2",
        "scan-blocks --group sym --n-range 2..9 --p 2",
        "scan-blocks --group alt --n-range 2..9 --p 3",
    ),
    "gl-poly": (
        "unipotent --n 6 --q 2 --collisions",
        "hll-check --n 6 --d 4",
        "hll-check --n 6 --d 3",
    ),
    "cyclo-factor": (
        "verify-wreath --e-max 3 --r-max 2",
        "zsigmondy --q 2 --m 10",
        "zsigmondy --q 3 --m 7",
    ),
}

# Which per-layer metrics each workload exercises (see README.md).
_ALGEBRA_POLY = (
    "algebra.self_s",
    "algebra.poly_mul.calls", "algebra.poly_mul.self_s",
    "algebra.poly_divrem.calls", "algebra.poly_divrem.self_s",
    "algebra.cyc_mul.calls", "algebra.cyc_mul.self_s",
    "algebra.cyc_inverse.calls", "algebra.cyclotomic_poly.hit_ratio",
)
EXERCISED = {
    "blocks-scan": (
        "partitions.self_s",
        "partitions.core_and_quotient.calls",
        "partitions.core_and_quotient.self_s",
        "partitions.core_and_quotient.per_check",
        "partitions.combine.self_s",
        "partitions.degree.hit_ratio",
        "partitions.hook_lengths.hit_ratio",
        "partitions.cache_entries",
        "wreath.wreath_degree.calls",
        "blocks.self_s",
        "blocks.relative_hook_degree.self_s",
        "blocks.quotient_congruence.self_s",
        "blocks.blocks_sn.self_s",
        "blocks.blocks_an.self_s",
        "blocks.classify_sym.self_s",
        "cli.self_s", "cli.report_bytes", "cli.jobs.largest_key_share",
    ),
    "gl-poly": _ALGEBRA_POLY + (
        "partitions.gl_degree_poly.calls",
        "partitions.gl_degree_poly.self_s",
        "partitions.gl_degree_poly.hit_ratio",
        "unipotent.self_s",
        "unipotent.unipotent_degrees_gl.calls",
        "unipotent.hll_check_gl.self_s",
        "unipotent.degree_collisions.self_s",
        "cli.self_s", "cli.report_bytes",
    ),
    "cyclo-factor": _ALGEBRA_POLY + (
        "algebra.trial_factor.self_s",
        "wreath.self_s",
        "wreath.schur_value.calls", "wreath.schur_value.self_s",
        "cli.self_s", "cli.report_bytes",
    ),
}


def _per_layer_names():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer"]}


def test_every_per_layer_metric_is_exercised_somewhere():
    names = _per_layer_names()
    exercised = {m for ms in EXERCISED.values() for m in ms}
    assert exercised <= names
    assert names - exercised == {"trace.overhead_s"}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_traced_matches_untraced(workload):
    slots = bench.WORKLOADS[workload]
    commands = [
        bench.Command(slot, tuple(line.split()))
        for slot, line in zip(slots, TINY[workload])
    ]
    golden = {}
    for cmd in commands:
        outcome = bench.run_process(bench.symblocks(cmd.argv))
        golden[bench.key(cmd.argv)] = {"sha256": outcome.sha256, "exit": outcome.status}
    checker = bench.Checker(golden)
    units = {name: "" for name in _per_layer_names()}
    metrics = bench.measure_traced(commands, 0, checker, units)
    assert len(commands) == len(slots)
    assert checker.attempted == 2 * len(commands)
    assert checker.failed == 0
    assert set(metrics) == set(units)
    silent = [m for m in EXERCISED[workload] if not metrics[m] > 0]
    assert not silent, f"{workload}: per-layer metrics read zero: {silent}"


def test_host_reference_prints_the_recorded_line():
    assert bench.reference_s() > 0
