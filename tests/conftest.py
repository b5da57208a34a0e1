"""Shared pytest hooks: one summary line per acceptance criterion.

Importing this module also prepends the checkout's `src` to PYTHONPATH, so
the `python -m symblocks` processes that tests start import the same package
as the tests do, with no install and no PYTHONPATH set by hand.
"""

import os
import re
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

CRITERIA = {
    1: "relative degree formula matches the hook length formula",
    2: "degree ratio congruence holds without exception",
    3: "root-of-unity specializations match wreath product degrees",
    4: "degree polynomials specialize to character degrees at 1",
    5: "trichotomy classification succeeds with valid witnesses",
    6: "positive-defect equal-degree alternating blocks have the small shape",
    7: "exponent identity enumerator reproduces the expected sets",
    8: "cyclotomic reduction constants match wreath degrees",
    9: "series by core coincide with block membership",
    10: "torus orders carry primitive primes except known small ranks",
}

_PATTERN = re.compile(r"test_criterion_(\d\d)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            m = _PATTERN.search(getattr(rep, "nodeid", ""))
            if m:
                k = int(m.group(1))
                outcomes[k] = outcomes.get(k, True) and ok
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(outcomes):
        verdict = "PASS" if outcomes[k] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {k}: {CRITERIA[k]}: {verdict}")
