"""On-the-fly file system hierarchy reconstruction (Section 4.1.1).

The tracer cannot see the server's namespace a priori, but lookup,
create, rename, and remove traffic reveals the active part of it: each
successful LOOKUP/CREATE reply binds (directory handle, name) → child
handle.  The paper observes that after a few minutes of trace, the
probability of meeting a file whose parent is unknown is very small —
an observation tested directly in our test suite.

The reconstructor also resolves REMOVE calls (which carry only
directory + name) to the victim's handle, which the block-lifetime
analysis needs to attribute block deaths to file deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pairing import PairedOp
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc

_OK = NfsStatus.OK

#: Procedures whose reply binds a name: they may introduce a handle
#: without it being an orphan.
_BINDER_PROCS = frozenset(
    {NfsProc.LOOKUP, NfsProc.CREATE, NfsProc.MKDIR, NfsProc.SYMLINK}
)


@dataclass(slots=True)
class KnownFile:
    """What the trace has revealed about one file handle."""

    fh: str
    parent_fh: str | None = None
    name: str | None = None
    ftype: str | None = None
    last_size: int | None = None
    first_seen: float = 0.0


class HierarchyReconstructor:
    """Learns the active namespace from a paired-op stream."""

    def __init__(self) -> None:
        self._files: dict[str, KnownFile] = {}
        #: (parent_fh, name) -> child fh
        self._entries: dict[tuple[str, str], str] = {}
        self.lookups_learned = 0
        self.orphan_operations = 0

    def __len__(self) -> int:
        return len(self._files)

    def observe(self, op: PairedOp) -> None:
        """Feed one operation; updates the namespace model."""
        fh = op.fh
        files = self._files
        if fh is not None and fh not in files and op.proc not in _BINDER_PROCS:
            # an operation on a handle whose parentage we never saw
            self.orphan_operations += 1
            files[fh] = KnownFile(fh, first_seen=op.time)
        if op.status is not _OK:
            return  # a failed operation changes nothing
        handler = _OBSERVERS.get(op.proc)
        if handler is not None:
            handler(self, op)
        post_size = op.post_size
        if fh is not None and post_size is not None:
            entry = files.get(fh)
            reply_fh = op.reply_fh
            if entry is not None and (reply_fh is None or reply_fh == fh):
                entry.last_size = post_size

    # -- queries ------------------------------------------------------------

    def lookup(self, fh: str) -> KnownFile | None:
        """What we know about ``fh``."""
        return self._files.get(fh)

    def name_of(self, fh: str) -> str | None:
        """The last known name of ``fh``."""
        entry = self._files.get(fh)
        return entry.name if entry else None

    def child(self, parent_fh: str, name: str) -> str | None:
        """The handle bound to (directory, name), if known."""
        return self._entries.get((parent_fh, name))

    def known_directories(self) -> set[str]:
        """Handles known to be directories (resolved through, or typed)."""
        dirs = {parent for parent, _name in self._entries}
        dirs.update(
            fh for fh, entry in self._files.items() if entry.ftype == "DIR"
        )
        return dirs

    def path_of(self, fh: str, *, max_depth: int = 64) -> str | None:
        """Reconstructed path of ``fh``, as far as lookups revealed it."""
        parts: list[str] = []
        current = self._files.get(fh)
        depth = 0
        while current is not None and current.name is not None:
            parts.append(current.name)
            if current.parent_fh is None or depth >= max_depth:
                break
            current = self._files.get(current.parent_fh)
            depth += 1
        if not parts:
            return None
        return "/" + "/".join(reversed(parts))

    def known_fraction(self, ops: list[PairedOp]) -> float:
        """Fraction of file-referencing ops whose handle is placed in
        the namespace (the paper's 'probability the parent has been
        seen').  A handle is placed when a lookup/create named it, or
        when it is itself a directory we have resolved names through.
        """
        parents = {parent for parent, _name in self._entries}
        total = known = 0
        for op in ops:
            if op.fh is None:
                continue
            total += 1
            entry = self._files.get(op.fh)
            if op.fh in parents or (
                entry is not None
                and (entry.parent_fh is not None or entry.name is not None)
            ):
                known += 1
        return known / total if total else 1.0

    # -- per-procedure learning -----------------------------------------------

    def _learn_binding(self, op: PairedOp) -> None:
        if op.reply_fh is None or op.fh is None or op.name is None:
            return
        child = self._files.get(op.reply_fh)
        if child is None:
            child = KnownFile(fh=op.reply_fh, first_seen=op.time)
            self._files[op.reply_fh] = child
        child.parent_fh = op.fh
        child.name = op.name
        if op.post_ftype is not None:
            child.ftype = op.post_ftype
        if op.post_size is not None:
            child.last_size = op.post_size
        self._entries[(op.fh, op.name)] = op.reply_fh
        self.lookups_learned += 1

    def _observe_remove(self, op: PairedOp) -> None:
        if op.fh is None or op.name is None:
            return
        victim = self._entries.pop((op.fh, op.name), None)
        if victim is not None:
            self._files.pop(victim, None)

    def _observe_rename(self, op: PairedOp) -> None:
        if op.fh is None or op.name is None:
            return
        moved = self._entries.pop((op.fh, op.name), None)
        target_dir = op.target_fh or op.fh
        target_name = op.target_name or op.name
        # a rename over an existing entry destroys it
        displaced = self._entries.get((target_dir, target_name))
        if displaced is not None and displaced != moved:
            self._files.pop(displaced, None)
        if moved is None:
            return
        self._entries[(target_dir, target_name)] = moved
        entry = self._files.get(moved)
        if entry is not None:
            entry.parent_fh = target_dir
            entry.name = target_name


_OBSERVERS = {
    NfsProc.LOOKUP: HierarchyReconstructor._learn_binding,
    NfsProc.CREATE: HierarchyReconstructor._learn_binding,
    NfsProc.MKDIR: HierarchyReconstructor._learn_binding,
    NfsProc.SYMLINK: HierarchyReconstructor._learn_binding,
    NfsProc.REMOVE: HierarchyReconstructor._observe_remove,
    NfsProc.RMDIR: HierarchyReconstructor._observe_remove,
    NfsProc.RENAME: HierarchyReconstructor._observe_rename,
}
