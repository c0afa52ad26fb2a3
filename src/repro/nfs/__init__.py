"""NFS protocol model.

Models the observable surface of NFSv2/NFSv3 that a passive tracer sees:
procedure names, call/reply messages with their trace-relevant arguments,
file handles, and file attributes.  The model is deliberately *wire
shaped* — it captures exactly the fields the paper's analyses consume
(timestamps, XIDs, procedures, handles, offsets, counts, attributes,
names) and nothing that a passive tracer could not observe.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NfsProc",
    "NfsVersion",
    "is_data_proc",
    "is_metadata_proc",
    "is_read_proc",
    "is_write_proc",
    "FileHandle",
    "HandleAllocator",
    "FileAttributes",
    "FileType",
    "NfsCall",
    "NfsReply",
    "NfsStatus",
    "RpcChannel",
    "Transport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "procedures": ("NfsProc", "NfsVersion", "is_data_proc", "is_metadata_proc",
                   "is_read_proc", "is_write_proc"),
    "filehandle": ("FileHandle", "HandleAllocator"),
    "attributes": ("FileAttributes", "FileType"),
    "messages": ("NfsCall", "NfsReply", "NfsStatus"),
    "rpc": ("RpcChannel", "Transport"),
})
