"""Helpers the command families share.

The summary table that ``analyze``, ``summary``, ``watch`` and
``monitor`` print, the one error for a trace where nothing pairs,
``--metrics-out`` snapshots, and trace output that never leaves a
partial file behind.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.obs.promtext import to_prom_text
from repro.report import format_table


def summary_text(input_path, s, stats) -> str:
    return format_table(
        ["Metric", "Value"],
        [
            ["Window (days)", f"{s.days:.3f}"],
            ["Total ops", s.total_ops],
            ["Ops/day", f"{s.ops_per_day:,.0f}"],
            ["Read ops/day", f"{s.read_ops_per_day:,.0f}"],
            ["Write ops/day", f"{s.write_ops_per_day:,.0f}"],
            ["GB read/day", f"{s.gb_read_per_day:.4f}"],
            ["GB written/day", f"{s.gb_written_per_day:.4f}"],
            ["R/W bytes ratio", f"{s.rw_byte_ratio:.3f}"],
            ["R/W ops ratio", f"{s.rw_op_ratio:.3f}"],
            ["Metadata fraction", f"{s.metadata_fraction:.3f}"],
            ["Estimated capture loss", f"{stats.estimated_loss_rate:.3%}"],
        ],
        title=f"Summary of {input_path}",
    )


def require_ops(ops, path) -> None:
    """The error every batch command gives a trace where nothing pairs."""
    if not ops:
        raise ValueError(f"no pairable operations in {path}")


def write_metrics(path, metrics) -> None:
    if not path:
        return
    if path.endswith(".prom"):
        Path(path).write_text(to_prom_text(metrics))
    else:
        Path(path).write_text(json.dumps(metrics.snapshot(), indent=2) + "\n")


@contextmanager
def trace_out(path):
    """A :class:`~repro.trace.writer.TraceWriter` on ``path``, closed
    when the block ends; if the block fails, the partial file is
    removed."""
    # imported here: the analysis commands share this module and
    # write no traces
    from repro.trace.writer import TraceWriter

    writer = TraceWriter(path)
    try:
        yield writer
    except BaseException:
        writer.close()
        Path(path).unlink(missing_ok=True)
        raise
    writer.close()
