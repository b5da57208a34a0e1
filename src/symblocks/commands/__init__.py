"""One module per subcommand, named after it with - replaced by _.

`cli.main` imports the module of the subcommand it runs once the flags are
parsed, so a process compiles and loads only its own subcommand's code.
Every module has the same three entry points: `report(args)` computes the
report's records, summary and refutations from the parsed flags,
`csv_rows(report)` yields the CSV header and then one row per record, and
`table_lines(report)` yields the lines of the table format.  Each module
imports the layers it runs at the top; the three that take --jobs also
import `_jobs`, whose forked workers inherit every module already loaded.
"""
