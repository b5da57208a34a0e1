"""Each oracle stays off the fast path it checks.

An oracle that runs part of the path it checks passes a fault in that part.
Each row of ROWS names an oracle call, the fast-path call it is checked
against, and the `src/` functions of that path.  Both calls run under
`sys.setprofile` with every cache of the package cleared first, so a cached
function is entered on its first call.  The oracle must enter none of the
listed functions, and the fast path must enter each of them, so that a row
whose functions were renamed or left the path fails instead of checking
nothing.
"""

import importlib
import inspect
import sys

import pytest

from oracles import (
    ParamSpec,
    blocks_sn_by_filter,
    combine_by_components,
    core_and_quotient_by_sorting,
    cyc_inverse_by_elimination,
    dhc_series_by_decomposition,
    gl_degree_poly_by_cyclotomic_exponents,
    hll_check_gl_by_stripping,
    relative_hook_degree_by_symbol_hooks,
    root_monomial_by_factors,
    schur_value_by_factors,
    tori_entry_by_binomials,
)
from symblocks import algebra, blocks, partitions, unipotent, wreath
from symblocks.algebra import CycElt, Poly

MODULES = (algebra, blocks, partitions, unipotent, wreath)

POWERS = (0, 1, -1, 0, 2, 0)
X = CycElt.from_poly(5, Poly.of(2, 1))  # zeta_5 + 2
SYMBOL = ((1,), (1,), (0,))

# the products and the inverse of the library's cyclotomic field
FIELD = ("algebra.CycElt.__mul__", "algebra.CycElt.inverse")

# oracle: (oracle call, fast-path call, functions of the fast path).
# Left out: `blocks_an_by_selection` builds every symmetric block with
# `blocks_sn` and restricts it with `blocks._restrict_members`, as its
# docstring says, so it checks only the selection of cores that `blocks_an`
# makes.  The two sides of criterion 9, `dhc_series_gl` and `blocks_sn`,
# share one builder; `test_criterion_09_holds_between_the_oracles` checks
# the criterion between two oracles instead.
ROWS = {
    "blocks_sn_by_filter": (
        lambda: blocks_sn_by_filter(6, 2),
        lambda: blocks.blocks_sn(6, 2),
        ("blocks.blocks_sn", "partitions.combine", "partitions.level_degrees",
         "partitions.cores_and_weights", "partitions.enumerate_multipartitions"),
    ),
    "combine_by_components": (
        lambda: combine_by_components((1,), ((2,), (1,)), 2),
        lambda: partitions.combine((1,), 3, 2),
        ("partitions.combine", "partitions._partition_from_ascending",
         "partitions.runner_bead_counts", "partitions._abacus_levels",
         "partitions.enumerate_multipartitions"),
    ),
    "relative_hook_degree_by_symbol_hooks": (
        lambda: relative_hook_degree_by_symbol_hooks((5, 2, 1), 3),
        lambda: blocks.relative_hook_degree((5, 2, 1), 3),
        ("blocks.relative_hook_degree", "blocks._quotient_table",
         "blocks._core_offsets", "partitions.runner_bead_counts",
         "partitions._abacus_levels"),
    ),
    "gl_degree_poly_by_cyclotomic_exponents": (
        lambda: gl_degree_poly_by_cyclotomic_exponents((3, 2, 1)),
        lambda: partitions.gl_degree_poly((3, 2, 1)),
        ("partitions.gl_degree_poly",),
    ),
    "dhc_series_by_decomposition": (
        lambda: dhc_series_by_decomposition(6, 2),
        lambda: unipotent.dhc_series_gl(6, 2),
        ("partitions.combine", "partitions.cores_and_weights",
         "unipotent.dhc_series_gl"),
    ),
    "hll_check_gl_by_stripping": (
        lambda: hll_check_gl_by_stripping(6, 3),
        lambda: unipotent.hll_check_gl(6, 3),
        ("unipotent.hll_check_gl", "unipotent.dhc_series_gl",
         "algebra.root_monomial", *FIELD),
    ),
    "tori_entry_by_binomials": (
        lambda: tori_entry_by_binomials("D", 5),
        lambda: unipotent.tori_entry("D", 5),
        ("unipotent.tori_entry", "algebra.cyclotomic_poly"),
    ),
    "cyc_inverse_by_elimination": (
        lambda: cyc_inverse_by_elimination(X),
        lambda: X.inverse(),
        FIELD,
    ),
    "root_monomial_by_factors": (
        lambda: root_monomial_by_factors(6, 1, 2, 1, POWERS),
        lambda: algebra.root_monomial(6, 1, 2, 1, POWERS),
        ("algebra.root_monomial", "algebra._one_minus_root_power", *FIELD),
    ),
    "schur_value_by_factors": (
        lambda: schur_value_by_factors(SYMBOL, ParamSpec.roots_of_unity(3)),
        lambda: wreath.schur_value(SYMBOL),
        ("wreath.schur_value", "algebra.root_monomial", *FIELD),
    ),
    "core_and_quotient_by_sorting": (
        lambda: core_and_quotient_by_sorting((5, 2, 1), 3),
        lambda: partitions.core_and_quotient((5, 2, 1), 3),
        ("partitions.core_and_quotient", "partitions._abacus_levels",
         "partitions._flush_core", "partitions._partition_from_ascending"),
    ),
}


def _code(name: str):
    """The code object of module.qualname in symblocks, under any cache."""
    module, _, qualname = name.partition(".")
    obj = importlib.import_module(f"symblocks.{module}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    return inspect.unwrap(obj).__code__


def _entered(call) -> set:
    """The code objects of every Python function that call enters, run with
    the package's caches empty."""
    for module in MODULES:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return codes


@pytest.mark.parametrize("oracle", sorted(ROWS))
def test_oracle_enters_no_function_of_its_fast_path(oracle):
    call, _, names = ROWS[oracle]
    entered = _entered(call)
    assert [name for name in names if _code(name) in entered] == []


@pytest.mark.parametrize("oracle", sorted(ROWS))
def test_fast_path_enters_every_listed_function(oracle):
    _, call, names = ROWS[oracle]
    entered = _entered(call)
    assert [name for name in names if _code(name) not in entered] == []
