"""Exact integer-partition rank/crank statistics.

Modules: laurent (exact Laurent polynomials), partitions (rank, crank and
colored partition counts), qseries (the packed colored-crank kernel),
cyclotomic (divisibility with verified quotients), verify (the claim suites
and their registry), search (the weight-tuple threshold scan) and cli (the
`crankspace` command).  Each public name is imported from the module that
defines it; the package root holds only __version__.
"""

__version__ = "0.1.0"
