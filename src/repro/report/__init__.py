"""Plain-text rendering for tables and figure series.

The benchmark harness prints every regenerated table and figure as
ASCII; figures are emitted as aligned data series (and simple ASCII
plots) so results are diffable and greppable without a plotting stack.
"""

from repro._lazy import lazy_exports

__all__ = ["format_table", "format_series", "ascii_plot"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "tables": ("format_table",),
    "figures": ("ascii_plot", "format_series"),
})
