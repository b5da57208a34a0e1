"""Exact-arithmetic tools for block combinatorics of symmetric-type groups.

Subpackages are plain modules: `algebra` (rationals, polynomials, cyclotomic
fields, Zsigmondy primes), `partitions` (hooks, degrees, cores, quotients),
`wreath` (e-symbols and Schur-element evaluation), `blocks` (p-blocks of the
symmetric and alternating groups), `unipotent` (degree polynomials for the
general linear groups and the small-value sieves), `cli` (the command-line
front end).  The package `commands` holds one module per subcommand, which
`cli` imports by name.
"""

__version__ = "0.1.0"
