"""Filename → attribute prediction (Section 6.3).

The paper's finding: the last component of a file's pathname predicts
its size, lifespan, and access pattern almost perfectly, because nearly
every file on CAMPUS falls into one of four name-shaped categories
(lock files, dot files, mail composer files, mailboxes) — and EECS
names are strong predictors too.

:class:`NameCategoryAnalyzer` streams paired ops, learns names from
lookup/create traffic, tracks each file's observed size, lifetime, and
access pattern, and then answers:

* the category census of files created-and-deleted in the window (the
  "96% are zero-length lock files" numbers);
* per-category percentile statistics (lock lifetimes, composer sizes);
* a train/test prediction experiment: train per-category modal
  attribute buckets on the first part of the window, predict files
  created later, and compare accuracy against a name-blind baseline.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.analysis.hierarchy import HierarchyReconstructor
from repro.analysis.pairing import PairedOp
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.workloads.namespaces import CATEGORY_OTHER, classify_name

_OK = NfsStatus.OK
_READ, _WRITE, _LOOKUP = NfsProc.READ, NfsProc.WRITE, NfsProc.LOOKUP
_CREATE, _REMOVE, _RMDIR = NfsProc.CREATE, NfsProc.REMOVE, NfsProc.RMDIR

#: Size buckets (bytes): zero, <=8K, <=64K, <=1M, large.
SIZE_BUCKET_EDGES = (0, 8 * 1024, 64 * 1024, 1024 * 1024)
SIZE_BUCKET_NAMES = ("zero", "<=8K", "<=64K", "<=1M", ">1M")

#: Lifetime buckets (seconds): the paper's interesting thresholds.
LIFETIME_BUCKET_EDGES = (0.4, 60.0, 600.0, 3600.0, 86400.0)
LIFETIME_BUCKET_NAMES = ("<0.4s", "<1min", "<10min", "<1hr", "<1day", "survivor")


def size_bucket(size: int) -> str:
    """Bucket name for a file size."""
    for edge, name in zip(SIZE_BUCKET_EDGES, SIZE_BUCKET_NAMES):
        if size <= edge:
            return name
    return SIZE_BUCKET_NAMES[-1]


def lifetime_bucket(lifetime: float | None) -> str:
    """Bucket name for a lifetime (None = never deleted)."""
    if lifetime is None:
        return LIFETIME_BUCKET_NAMES[-1]
    for edge, name in zip(LIFETIME_BUCKET_EDGES, LIFETIME_BUCKET_NAMES):
        if lifetime < edge:
            return name
    return LIFETIME_BUCKET_NAMES[-1]


@dataclass
class FileObservation:
    """Everything observed about one file."""

    fh: str
    name: str
    category: str
    created_at: float | None = None
    deleted_at: float | None = None
    max_size: int = 0
    sequential_accesses: int = 0
    nonsequential_accesses: int = 0
    _last_end: int | None = field(default=None, repr=False)

    @property
    def lifetime(self) -> float | None:
        """Seconds from create to delete, None if either is unseen."""
        if self.created_at is None or self.deleted_at is None:
            return None
        return self.deleted_at - self.created_at

    @property
    def pattern(self) -> str:
        """sequential / random / untouched, from access votes."""
        total = self.sequential_accesses + self.nonsequential_accesses
        if total == 0:
            return "untouched"
        if self.sequential_accesses / total >= 0.8:
            return "sequential"
        return "random"

    def size_bucket(self) -> str:
        return size_bucket(self.max_size)

    def lifetime_bucket(self) -> str:
        return lifetime_bucket(self.lifetime)


@dataclass
class PredictionResult:
    """Accuracy of name-based vs name-blind prediction."""

    attribute: str
    name_based_accuracy: float
    baseline_accuracy: float
    test_files: int

    @property
    def lift(self) -> float:
        """Accuracy gain of knowing the name."""
        return self.name_based_accuracy - self.baseline_accuracy


class NameCategoryAnalyzer:
    """Learns file categories and their attribute distributions."""

    def __init__(self) -> None:
        self.hierarchy = HierarchyReconstructor()
        self._files: dict[str, FileObservation] = {}
        #: (attribute, category) -> sorted values, rebuilt lazily; any
        #: new observation invalidates it (sizes/lifetimes may change)
        self._sorted_cache: dict[tuple[str, str], list[float]] = {}

    # -- streaming ---------------------------------------------------------------

    def observe(self, op: PairedOp) -> None:
        """Feed one paired op (wire-time order)."""
        self.fold(op)
        self.hierarchy.observe(op)

    def fold(self, op: PairedOp) -> None:
        """One op's observations, without the namespace update.

        Victims resolve through :attr:`hierarchy` as it stands, so a
        caller feeding this updates the namespace after it.
        """
        if self._sorted_cache:
            self._sorted_cache.clear()
        if op.status is not _OK:
            return
        proc = op.proc
        if proc is _READ or proc is _WRITE:
            if op.fh:
                self._observe_access(op)
        elif proc is _LOOKUP:
            if op.reply_fh and op.name:
                self._file_for(op.reply_fh, op.name)
        elif proc is _CREATE:
            if op.reply_fh and op.name:
                obs = self._file_for(op.reply_fh, op.name)
                if obs.created_at is None:
                    obs.created_at = op.time
                if op.post_size is not None:
                    obs.max_size = max(obs.max_size, op.post_size)
        elif proc is _REMOVE or proc is _RMDIR:
            if op.fh and op.name:
                victim = self.hierarchy.child(op.fh, op.name)
                if victim is not None and victim in self._files:
                    self._files[victim].deleted_at = op.time

    def observe_all(self, ops) -> "NameCategoryAnalyzer":
        """Feed a whole stream; returns self."""
        for op in ops:
            self.observe(op)
        return self

    def _file_for(self, fh: str, name: str) -> FileObservation:
        obs = self._files.get(fh)
        if obs is None:
            obs = FileObservation(fh=fh, name=name, category=classify_name(name))
            self._files[fh] = obs
        return obs

    def _observe_access(self, op: PairedOp) -> None:
        fh = op.fh
        obs = self._files.get(fh)
        if obs is None:
            known = self.hierarchy.lookup(fh)
            if known is None or known.name is None:
                return
            obs = self._file_for(fh, known.name)
        post_size = op.post_size
        if post_size is not None and post_size > obs.max_size:
            obs.max_size = post_size
        offset, count = op.offset, op.count
        if offset is None or count is None:
            return
        last_end = obs._last_end
        if last_end is None or offset == last_end:
            obs.sequential_accesses += 1
        else:
            obs.nonsequential_accesses += 1
        obs._last_end = offset + count

    # -- census queries -------------------------------------------------------------

    def files(self) -> list[FileObservation]:
        """All observed files."""
        return list(self._files.values())

    def created_and_deleted(self) -> list[FileObservation]:
        """Files whose full create-to-delete life fell in the window."""
        return [
            f
            for f in self._files.values()
            if f.created_at is not None and f.deleted_at is not None
        ]

    def category_census(self, files=None) -> Counter:
        """File counts per name category."""
        files = self.files() if files is None else files
        return Counter(f.category for f in files)

    def category_share(self, category: str, files=None) -> float:
        """Share of ``files`` in ``category`` (0..1)."""
        files = self.files() if files is None else files
        if not files:
            return 0.0
        return sum(1 for f in files if f.category == category) / len(files)

    def lifetime_percentile(self, category: str, fraction: float) -> float | None:
        """The ``fraction`` lifetime percentile of a category's files.

        The sorted value list is cached per category until the next
        :meth:`observe`, so sweeping many percentiles (the report's
        p10/p50/p90 columns) sorts once instead of once per query.
        """
        key = ("lifetime", category)
        lifetimes = self._sorted_cache.get(key)
        if lifetimes is None:
            lifetimes = sorted(
                f.lifetime
                for f in self.created_and_deleted()
                if f.category == category and f.lifetime is not None
            )
            self._sorted_cache[key] = lifetimes
        if not lifetimes:
            return None
        index = min(len(lifetimes) - 1, int(fraction * len(lifetimes)))
        return lifetimes[index]

    def size_percentile(self, category: str, fraction: float) -> float | None:
        """The ``fraction`` size percentile of a category's files.

        Cached between observations, like :meth:`lifetime_percentile`.
        """
        key = ("size", category)
        sizes = self._sorted_cache.get(key)
        if sizes is None:
            sizes = sorted(
                f.max_size for f in self._files.values() if f.category == category
            )
            self._sorted_cache[key] = sizes
        if not sizes:
            return None
        index = min(len(sizes) - 1, int(fraction * len(sizes)))
        return sizes[index]

    # -- the prediction experiment ------------------------------------------------

    def predict(self, attribute: str) -> PredictionResult:
        """Train on the older half of created files, test on the newer.

        ``attribute`` is one of ``size``, ``lifetime``, ``pattern``.
        The name-based predictor predicts each test file's attribute
        bucket as its category's modal bucket from training; the
        baseline predicts the global modal bucket.
        """
        extractor = {
            "size": FileObservation.size_bucket,
            "lifetime": FileObservation.lifetime_bucket,
            "pattern": lambda f: f.pattern,
        }.get(attribute)
        if extractor is None:
            raise ValueError(f"unknown attribute {attribute!r}")
        created = sorted(
            (f for f in self._files.values() if f.created_at is not None),
            key=lambda f: f.created_at,
        )
        if len(created) < 4:
            return PredictionResult(attribute, 0.0, 0.0, 0)
        half = len(created) // 2
        train, test = created[:half], created[half:]
        per_category: dict[str, Counter] = defaultdict(Counter)
        overall: Counter = Counter()
        for f in train:
            value = extractor(f)
            per_category[f.category][value] += 1
            overall[value] += 1
        global_mode = overall.most_common(1)[0][0]
        name_hits = base_hits = 0
        for f in test:
            actual = extractor(f)
            votes = per_category.get(f.category)
            predicted = votes.most_common(1)[0][0] if votes else global_mode
            if predicted == actual:
                name_hits += 1
            if global_mode == actual:
                base_hits += 1
        n = len(test)
        return PredictionResult(
            attribute=attribute,
            name_based_accuracy=name_hits / n,
            baseline_accuracy=base_hits / n,
            test_files=n,
        )

    # -- unique-files-accessed shares (Table 1 / Section 6.1.2) ----------------------

    def accessed_shares(self, ops) -> dict[str, float]:
        """Share of unique files referenced, per category.

        Feed the same (or a sub-window's) op stream; only file handles
        with learned names are categorizable, the rest count as other.
        """
        handles: dict[str | None, None] = {}
        for op in ops:
            handles[op.fh] = None
            handles[op.reply_fh] = None
        directories = self.hierarchy.known_directories()
        lookup = self.hierarchy.lookup
        census: Counter = Counter()
        for fh in handles:
            if fh is None or fh in directories:
                continue
            known = lookup(fh)
            if known is not None and known.ftype == "DIR":
                continue
            obs = self._files.get(fh)
            if obs is not None:
                census[obs.category] += 1
            elif known is not None and known.name is not None:
                census[classify_name(known.name)] += 1
            else:
                census[CATEGORY_OTHER] += 1
        total = sum(census.values())
        if total == 0:
            return {}
        return {category: count / total for category, count in census.items()}
