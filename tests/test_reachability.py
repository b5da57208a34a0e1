"""Every function under src/symblocks is entered by some command.

A function that only the tests call is library surface the program does not
need.  A child process installs a `sys.setprofile` hook before it imports
symblocks, runs COMMANDS through `cli.main` and prints the code objects it
entered.  The test compiles every module under src/symblocks, walks its
code objects down to each nested function and lambda, and fails on any that
no command entered, apart from those in ALLOWED.  A comprehension or
generator expression counts as part of the function it is written in.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symblocks"

# one small run per subcommand, each rendered in all three formats
SMALL = (
    ["scan-blocks", "--group", "sym", "--n-range", "4..6", "--p", "2"],
    ["verify-hook-formula", "--n-max", "6", "--primes", "2,3"],
    ["verify-wreath", "--e-max", "3", "--r-max", "2"],
    ["unipotent", "--n", "4", "--q", "2"],
    ["hll-check", "--n", "6", "--d", "3"],
    ["speceq", "--q-max", "4", "--m-max", "3", "--exp-bound", "1"],
    ["tori", "--series", "D", "--n", "5", "--q", "2"],
    ["zsigmondy", "--q", "2", "--m", "6"],
)

COMMANDS = [
    argv + ["--format", fmt] for argv in SMALL for fmt in ("json", "csv", "table")
] + [
    ["scan-blocks", "--group", "alt", "--n-range", "4..6", "--p", "3",
     "--ehzd-only", "--format", "json"],
    ["zsigmondy", "--q", "2", "--m", "4", "--out", "{tmp}/out.json"],
    ["verify-hook-formula", "--n-max", "5", "--primes", "2,3", "--jobs", "2"],
    ["zsigmondy", "--q", "1", "--m", "4"],
    ["unipotent", "--n", "15", "--q", "2", "--collisions", "--format", "json"],
]

# (qualified name, why no command needs to enter it)
ALLOWED = {
    "_Frozen.__setattr__": "immutability guard: refuses assignment",
    "_Frozen.__delattr__": "immutability guard: refuses deletion",
    "_Frozen.__reduce__": "pickle and copy guard: rebuilds through __init__",
    "Poly.__repr__": "for debugging; no report prints a Poly",
    "CycElt.__repr__": "for debugging; no report prints a CycElt",
    "Poly.__hash__": "keeps equal Polys hashing alike, as __eq__ requires",
}

# CO_OPTIMIZED is clear only on module and class bodies
COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}

CHILD = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout

entered = set()

def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(record)
# the --jobs run forks its worker on a one-CPU host too
os.sched_getaffinity = lambda pid: {0, 1}
from symblocks import cli

statuses = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        statuses.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({
    "statuses": statuses,
    "entered": sorted({(c.co_filename, c.co_firstlineno, c.co_qualname)
                       for c in entered}),
}))
"""


def _functions(code: types.CodeType):
    """The code objects of every function nested in code, at any depth."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _functions(const)


def test_every_function_is_entered_by_a_command(tmp_path):
    argv = [[a.replace("{tmp}", str(tmp_path)) for a in cmd] for cmd in COMMANDS]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout)
    # every run but the usage error ends 0 or 1
    assert [s for s in result["statuses"] if s not in (0, 1)] == [2]
    entered = {(f, line, name) for f, line, name in result["entered"]}
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in _functions(module):
            # class bodies are code objects but not functions, and a
            # comprehension belongs to the function it is written in
            if not code.co_flags & 1 or code.co_name in COMPREHENSIONS:
                continue
            key = (str(path), code.co_firstlineno, code.co_qualname)
            if key not in entered and code.co_qualname not in ALLOWED:
                missed.append(f"{path.relative_to(SRC)}:{key[1]} {key[2]}")
    assert missed == [], "\n".join(missed)
