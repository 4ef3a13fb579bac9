"""Exact equitable graph coloring: DSATUR-style branch and bound with
flow-based and arithmetic Hall-condition pruning, plus brute-force oracles
and a benchmark harness.

The package namespace holds the user-facing API; the engines, the
brute-force oracles and the benchmark families are imported from their
own modules (`eqcolor.flownet`, `eqcolor.hallrules`, `eqcolor.oracle`,
...). The paper's literal flow network is test code
(`tests/literal_network.py`), not part of the package."""

from .graph import DimacsError, Graph, gen_gnp, parse_dimacs, write_dimacs
from .solver import SearchStats, Solution, SolverConfig, solve

__all__ = [
    "DimacsError",
    "Graph",
    "SearchStats",
    "Solution",
    "SolverConfig",
    "gen_gnp",
    "parse_dimacs",
    "solve",
    "write_dimacs",
]

__version__ = "0.1.0"
