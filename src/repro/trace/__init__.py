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
path and releases records to its sinks in wire order as the event
loop's clock passes them.
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "binfmt": ("BinaryTraceDecoder", "BinaryTraceEncoder",
               "is_binary_trace_path", "read_binary_trace"),
    "record": ("Direction", "TraceRecord"),
    "writer": ("TraceWriter", "write_trace"),
    "reader": ("TraceReader", "read_trace"),
    "collector": ("TraceCollector",),
})
