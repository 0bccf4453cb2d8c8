"""Paper-value registry, table rendering and shape-check comparators.

The BENCH trajectory checker lives in :mod:`repro.reporting.trajectory`
and is imported from there: re-exporting it here would load it with the
package, and ``python -m repro.reporting.trajectory`` would then warn
that the module was already imported before running it as ``__main__``.
"""

from . import paper_values
from .compare import (
    argmax_index,
    crossover_index,
    is_monotone,
    peak_at,
    relative_error,
    within_factor,
)
from .tables import format_comparison, format_counter_table, format_table

__all__ = [
    "argmax_index",
    "crossover_index",
    "format_comparison",
    "format_counter_table",
    "format_table",
    "is_monotone",
    "paper_values",
    "peak_at",
    "relative_error",
    "within_factor",
]
