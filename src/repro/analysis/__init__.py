"""Analysis and reporting: regenerating the paper's Figure 1.

* :mod:`~repro.analysis.figure1` — drives every dictionary (deterministic
  and randomized) through the same workload on identical machines and
  tabulates measured lookup/update I/Os and bandwidth next to the paper's
  claimed bounds.
* :mod:`~repro.analysis.reporting` — plain-text table rendering shared by
  the benchmarks.
"""

from repro.analysis.figure1 import Figure1Row, run_figure1
from repro.analysis.reporting import render_table
from repro.analysis.concurrency import (
    conflict_rate,
    footprint_of,
    footprints,
    max_block_contention,
)

__all__ = [
    "Figure1Row",
    "run_figure1",
    "render_table",
    "conflict_rate",
    "footprint_of",
    "footprints",
    "max_block_contention",
]
