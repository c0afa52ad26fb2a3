"""Trace records and the on-disk trace format.

One record per NFS call or reply observed on the wire, in a text
format modelled on ``nfsdump``: one whitespace-separated line per
record with fixed leading columns and ``key=value`` pairs for the
per-procedure fields.  Files may be plain text or gzip (detected by
suffix).  A ``struct``-packed binary container
(:mod:`repro.trace.binfmt`, suffix ``.rtb``/``.rtb.gz``) carries the
same records for fast decoding; the writer and reader pick the format
from the filename.

:class:`~repro.trace.collector.TraceCollector` is the bridge from the
live simulation to a trace: it is installed as a tap on the network
path and accumulates records in capture order.
"""

from repro.trace.binfmt import (
    BinaryTraceDecoder,
    BinaryTraceEncoder,
    is_binary_trace_path,
    read_binary_trace,
)
from repro.trace.record import Direction, TraceRecord
from repro.trace.writer import TraceWriter, write_trace
from repro.trace.reader import TraceReader, read_trace
from repro.trace.collector import TraceCollector

__all__ = [
    "BinaryTraceDecoder",
    "BinaryTraceEncoder",
    "Direction",
    "TraceRecord",
    "TraceWriter",
    "TraceReader",
    "TraceCollector",
    "is_binary_trace_path",
    "read_binary_trace",
    "write_trace",
    "read_trace",
]
