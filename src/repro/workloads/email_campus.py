"""The CAMPUS workload: email, email, email.

Models the university central computing system of Section 3.2 / 6.1.2:
~10k users' home directories (scaled down) served to a handful of
SMTP/POP/login server hosts over NFSv3/TCP.  The generated activity is
the session anatomy the paper describes:

* **Mail delivery** (SMTP hosts): take the inbox lock, append the
  message, release the lock.  Lock files are zero-length and live
  under half a second.
* **Mail sessions** (POP/login hosts): read ``.cshrc``/``.login`` and
  ``.pinerc``, lock and scan the whole inbox, then poll for new mail —
  a delivery's mtime change invalidates the whole cached inbox and
  forces a multi-megabyte re-read (the paper's dominant read source).
  Mail clients checkpoint mailbox state periodically (rewriting the
  tail region in place) and rewrite/expunge on quit, which is where
  almost all CAMPUS block deaths (overwrites) come from and why the
  median block lifetime tracks the 10-15 minute checkpoint cadence.
* **Composition**: short-lived ``pico.######`` temporaries, 98% under
  8 KB.
* **Folder activity**: occasional saves to ``mail/`` folders.

Default parameters are tuned so the headline shape statistics match
Table 1/2: read/write byte ratio ≈ 3, ~50% of unique files accessed
are locks and ~20% inboxes, >95% of bytes move through mailboxes, and
>96% of files created+deleted in a day are zero-length locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fs.blockmap import BLOCK_SIZE
from repro.nfs.procedures import NfsVersion
from repro.nfs.rpc import Transport
from repro.simcore.clock import SECONDS_PER_DAY
from repro.workloads import namespaces
from repro.workloads.base import WorkloadGenerator
from repro.workloads.diurnal import DiurnalModel
from repro.workloads.users import User, UserPopulation

if TYPE_CHECKING:
    from repro.workloads.harness import TracedSystem


@dataclass
class CampusParams:
    """Tunable knobs for the CAMPUS generator (defaults match paper shape)."""

    users: int = 30
    smtp_hosts: int = 2
    pop_hosts: int = 3
    inbox_median_bytes: int = 1_600_000
    inbox_sigma: float = 0.6
    message_median_bytes: int = 3_500
    message_sigma: float = 1.1
    deliveries_per_user_day: float = 18.0
    sessions_per_user_day: float = 4.0
    session_mean_duration: float = 1500.0  # ~25 minutes
    poll_interval: float = 120.0  # new-mail check cadence in a session
    checkpoint_interval: float = 600.0  # ~10 min, sets the block-lifetime mode
    checkpoint_fraction: float = 0.16  # tail fraction rewritten per checkpoint
    quit_rewrite_fraction: float = 0.38  # fraction rewritten at quit
    expunge_fraction: float = 0.04  # fraction truncated away at quit
    composer_per_session: float = 0.5
    folder_save_probability: float = 0.12
    attachment_probability: float = 0.05
    #: remote POP checks per user-day: each check stats the inbox and
    #: downloads it in full when new mail arrived since the last check
    pop_checks_per_user_day: float = 30.0
    #: fraction of session quits that rewrite the mailbox from byte 0
    #: (a full expunge pass) rather than from the first dirty offset
    full_rewrite_probability: float = 0.3
    quota_bytes: int = 50 * 1024 * 1024  # the CAMPUS 50 MB quota


class CampusEmailWorkload(WorkloadGenerator):
    """Generates the CAMPUS email workload onto a TracedSystem."""

    def __init__(self, params: CampusParams | None = None, *, group=None) -> None:
        super().__init__("campus", group=group)
        self.params = params if params is not None else CampusParams()
        self.diurnal = DiurnalModel()
        self.population: UserPopulation | None = None
        #: inbox size at each user's last remote POP check
        self._pop_seen: dict[int, int] = {}

    # -- setup -------------------------------------------------------------

    def populate(self, system: TracedSystem) -> None:
        """Build home directories, dot files, inboxes, and folders."""
        p = self.params
        rng = system.rngs.stream("campus.populate")
        indices = self.population_indices(p.users)
        self.population = UserPopulation(
            p.users if indices is None else len(indices), rng,
            login_prefix="cu", indices=indices,
        )
        fs = system.fs
        for user in self.population:
            home = fs.makedirs(user.home, 0.0, uid=user.uid, gid=user.gid)
            for dot_name, (low, high) in namespaces.DOT_FILES.items():
                node = fs.create(
                    home.handle, dot_name, 0.0, uid=user.uid, gid=user.gid
                )
                fs.write(node.handle, 0, rng.randint(low, high), 0.0)
            inbox_size = int(rng.lognormvariate(0.0, p.inbox_sigma) * p.inbox_median_bytes)
            inbox = fs.create(
                home.handle, namespaces.INBOX_NAME, 0.0, uid=user.uid, gid=user.gid
            )
            fs.write(inbox.handle, 0, max(BLOCK_SIZE, inbox_size), 0.0)
            mail_dir = fs.mkdir(home.handle, "mail", 0.0, uid=user.uid, gid=user.gid)
            for folder in rng.sample(namespaces.MAIL_FOLDER_NAMES, 3):
                node = fs.create(
                    mail_dir.handle, folder, 0.0, uid=user.uid, gid=user.gid
                )
                fs.write(node.handle, 0, rng.randint(20_000, 400_000), 0.0)

    def install(self, system: TracedSystem) -> None:
        """Create the server-host clients and start arrival processes."""
        p = self.params
        domain = self.domain("campus")
        for i in range(p.smtp_hosts):
            system.add_client(
                f"smtp{i}.{domain}", transport=Transport.TCP,
                version=NfsVersion.V3, nfsiod_count=6,
            )
        for i in range(p.pop_hosts):
            system.add_client(
                f"pop{i}.{domain}", transport=Transport.TCP,
                version=NfsVersion.V3, nfsiod_count=6,
                cache_blocks=3000,
            )
        # the general-purpose login server: interactive shells, small
        # effective cache share per user
        system.add_client(
            f"login0.{domain}", transport=Transport.TCP,
            version=NfsVersion.V3, nfsiod_count=6, cache_blocks=8,
        )
        mean_mult = sum(self.diurnal.hourly_profile()) / len(
            self.diurnal.hourly_profile()
        )
        for user in self.population:
            rng = system.rngs.stream(f"campus.user.{user.uid}")
            rate = p.deliveries_per_user_day * user.activity
            delivery_interval = SECONDS_PER_DAY * mean_mult / max(rate, 0.1)
            self._schedule_delivery(system, user, rng, delivery_interval)
            rate = p.sessions_per_user_day * user.activity
            session_interval = SECONDS_PER_DAY * mean_mult / max(rate, 0.1)
            self._schedule_session(system, user, rng, session_interval)
            rate = p.pop_checks_per_user_day * user.activity
            pop_interval = SECONDS_PER_DAY * mean_mult / max(rate, 0.1)
            self._schedule_pop_check(system, user, rng, pop_interval)

    # -- host selection -------------------------------------------------------

    def _smtp_client(self, system: TracedSystem, user: User):
        host = f"smtp{user.uid % self.params.smtp_hosts}.{self.domain('campus')}"
        return system.clients[host]

    def _pop_client(self, system: TracedSystem, user: User):
        host = f"pop{user.uid % self.params.pop_hosts}.{self.domain('campus')}"
        return system.clients[host]

    # -- mail delivery ------------------------------------------------------------

    def _schedule_delivery(self, system, user, rng, interval) -> None:
        when = self.diurnal.next_arrival(system.clock.now, interval, rng)
        system.loop.schedule(when, lambda: self._deliver(system, user, rng, interval))

    def _deliver(self, system, user, rng, interval) -> None:
        p = self.params
        client = self._smtp_client(system, user)
        inbox_path = f"{user.home}/{namespaces.INBOX_NAME}"
        message = max(
            300, int(rng.lognormvariate(0.0, p.message_sigma) * p.message_median_bytes)
        )
        if self._with_lock(client, user, inbox_path, lambda: self._append(
            client, user, inbox_path, message
        )):
            self.count("deliveries")
        self._schedule_delivery(system, user, rng, interval)

    def _append(self, client, user, path, nbytes) -> None:
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        wrote = client.append(of, nbytes)
        if wrote < nbytes:
            self.count("quota.hit")
        client.close(of)

    # -- mail sessions --------------------------------------------------------------

    def _schedule_session(self, system, user, rng, interval) -> None:
        when = self.diurnal.next_arrival(system.clock.now, interval, rng)
        system.loop.schedule(
            when, lambda: self._start_session(system, user, rng, interval)
        )

    def _start_session(self, system, user, rng, interval) -> None:
        p = self.params
        client = self._pop_client(system, user)
        self.count("sessions")
        # login: the shell on the login server reads the dot files
        login_client = system.clients[f"login0.{self.domain('campus')}"]
        for dot in (".cshrc", ".login"):
            self._read_whole(login_client, user, f"{user.home}/{dot}")
        # mail client start: configuration, then the initial full scan
        self._read_whole(client, user, f"{user.home}/.pinerc")
        inbox_path = f"{user.home}/{namespaces.INBOX_NAME}"
        # the mail client takes the lock only to check/update mailbox
        # state; the scan itself runs unlocked (locks live < 0.4 s)
        self._with_lock(
            client, user, inbox_path,
            lambda: client.stat(inbox_path, uid=user.uid, gid=user.gid),
        )
        self._scan_inbox(client, user, inbox_path)
        duration = rng.expovariate(1.0 / p.session_mean_duration)
        duration = min(max(duration, 300.0), 4 * p.session_mean_duration)
        end_time = system.clock.now + duration
        state = {"last_checkpoint": system.clock.now}
        self._schedule_poll(system, user, rng, end_time, state)
        system.loop.schedule(
            end_time, lambda: self._quit_session(system, user, rng, interval)
        )

    def _schedule_poll(self, system, user, rng, end_time, state) -> None:
        p = self.params
        when = system.clock.now + rng.expovariate(1.0 / p.poll_interval)
        if when >= end_time:
            return
        system.loop.schedule(
            when, lambda: self._poll(system, user, rng, end_time, state)
        )

    def _poll(self, system, user, rng, end_time, state) -> None:
        """Mid-session activity: new-mail check, checkpoint, composition."""
        p = self.params
        client = self._pop_client(system, user)
        inbox_path = f"{user.home}/{namespaces.INBOX_NAME}"
        # new-mail poll: a full rescan; absorbed by the cache unless a
        # delivery invalidated it
        self._scan_inbox(client, user, inbox_path)
        self.count("polls")
        now = system.clock.now
        if now - state["last_checkpoint"] >= p.checkpoint_interval:
            state["last_checkpoint"] = now
            self._with_lock(
                client, user, inbox_path,
                lambda: self._rewrite_tail(
                    client, user, inbox_path, p.checkpoint_fraction
                ),
            )
            self.count("checkpoints")
        if rng.random() < p.composer_per_session * p.poll_interval / 600.0:
            self._compose(system, user, rng)
        if rng.random() < p.folder_save_probability:
            self._folder_save(client, user, rng)
        self._schedule_poll(system, user, rng, end_time, state)

    def _quit_session(self, system, user, rng, interval) -> None:
        """Quit: rewrite/expunge the mailbox, drop the lock, reschedule."""
        p = self.params
        client = self._pop_client(system, user)
        inbox_path = f"{user.home}/{namespaces.INBOX_NAME}"

        def rewrite_and_expunge():
            try:
                of = client.open(inbox_path, uid=user.uid, gid=user.gid)
            except FileNotFoundError:
                return
            size = of.size
            if rng.random() < p.full_rewrite_probability:
                start = 0  # full expunge pass: an *entire* write run
            else:
                start = int(size * (1.0 - p.quit_rewrite_fraction))
            client.write(of, start, max(0, size - start))
            if rng.random() < 0.7:
                new_size = int(size * (1.0 - p.expunge_fraction))
                if new_size < size:
                    client.truncate(of, new_size)
            client.close(of)

        self._with_lock(client, user, inbox_path, rewrite_and_expunge)
        self.count("quits")
        self._schedule_session(system, user, rng, interval)

    # -- sub-activities ---------------------------------------------------------------

    def _scan_inbox(self, client, user, path) -> None:
        self._read_whole(client, user, path)

    def _read_whole(self, client, user, path) -> None:
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        client.read(of, 0, of.size)
        client.close(of)

    def _rewrite_tail(self, client, user, path, fraction) -> None:
        """Checkpoint: rewrite the tail ``fraction`` of the mailbox in
        place (message status flags), killing those blocks by overwrite."""
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        size = of.size
        start = int(size * (1.0 - fraction))
        client.write(of, start, max(0, size - start))
        client.close(of)

    def _compose(self, system, user, rng) -> None:
        """Create a composer temp, write the draft, delete it shortly."""
        p = self.params
        client = self._pop_client(system, user)
        name = namespaces.composer_temp_name(rng)
        path = f"{user.home}/{name}"
        try:
            of = client.create(path, uid=user.uid, gid=user.gid)
        except (FileExistsError, OSError):
            return
        # paper: 98% of composer files < 8K, 99.9% < 40K
        draft = int(rng.lognormvariate(0.0, 0.8) * 1500)
        draft = min(max(draft, 100), 39_000)
        client.write(of, 0, draft)
        client.close(of)
        self.count("composer.files")
        lifetime = rng.expovariate(1.0 / 90.0)  # 45% live under a minute
        system.loop.schedule_in(
            min(lifetime, 1800.0),
            lambda: (client.unlink(path, uid=user.uid), self.count("composer.deleted")),
        )
        if rng.random() < p.attachment_probability:
            att = f"{user.home}/{namespaces.attachment_temp_name(rng)}"
            try:
                att_of = client.create(att, uid=user.uid, gid=user.gid)
            except (FileExistsError, OSError):
                return
            client.write(att_of, 0, rng.randint(20_000, 200_000))
            client.close(att_of)
            system.loop.schedule_in(
                rng.uniform(60.0, 900.0), lambda: client.unlink(att, uid=user.uid)
            )

    def _folder_save(self, client, user, rng) -> None:
        """Append a message copy to a saved-mail folder (with its lock).

        mbox appends check the folder's tail first (the trailing
        separator), so a save is a read-then-write on the same file —
        the paper's small population of read-write runs.
        """
        folder = rng.choice(namespaces.MAIL_FOLDER_NAMES[:3])
        path = f"{user.home}/mail/{folder}"
        nbytes = max(300, int(rng.lognormvariate(0.0, 1.0) * 3000))

        def check_tail_and_append():
            try:
                of = client.open(path, uid=user.uid, gid=user.gid)
            except FileNotFoundError:
                return
            tail = min(of.size, 2048)
            if tail:
                client.read(of, of.size - tail, tail)
            wrote = client.append(of, nbytes)
            if wrote < nbytes:
                self.count("quota.hit")
            client.close(of)

        if self._with_lock(client, user, path, check_tail_and_append):
            self.count("folder.saves")

    # -- remote POP polling -------------------------------------------------------

    def _schedule_pop_check(self, system, user, rng, interval) -> None:
        when = self.diurnal.next_arrival(system.clock.now, interval, rng)
        system.loop.schedule(
            when, lambda: self._pop_check(system, user, rng, interval)
        )

    def _pop_check(self, system, user, rng, interval) -> None:
        """A remote mail client polls via POP (Section 3.2: most CAMPUS
        users read mail remotely).

        Grown inbox: fetch only the new tail.  Shrunk inbox (an expunge
        rewrote it, so the message list changed): re-download in full.
        Unchanged: the stat alone suffices.
        """
        client = self._pop_client(system, user)
        inbox_path = f"{user.home}/{namespaces.INBOX_NAME}"
        attrs = client.stat(inbox_path, uid=user.uid, gid=user.gid)
        if attrs is not None:
            seen = self._pop_seen.get(user.uid)
            if seen is None or attrs.size < seen or (
                attrs.size > seen and rng.random() < 0.5
            ):
                # new client, shrunk mailbox, or a leave-mail-on-server
                # client re-syncing: full download
                self._scan_inbox(client, user, inbox_path)
            elif attrs.size > seen:
                try:
                    of = client.open(inbox_path, uid=user.uid, gid=user.gid)
                    client.read(of, max(0, seen - 1024), attrs.size - seen + 1024)
                    client.close(of)
                except FileNotFoundError:
                    pass
            self._pop_seen[user.uid] = attrs.size
        self.count("pop.checks")
        self._schedule_pop_check(system, user, rng, interval)

    def _with_lock(self, client, user, base_path, action) -> bool:
        """Run ``action`` under ``<base_path>.lock``; False if contended.

        The lock is a zero-length exclusively-created file, removed
        immediately after the action — the paper's dominant
        created-and-deleted file category.
        """
        lock_path = namespaces.lock_name(base_path)
        try:
            client.create(lock_path, uid=user.uid, gid=user.gid, exclusive=True)
        except FileExistsError:
            self.count("lock.contended")
            return False
        except OSError:
            return False
        self.count("locks.taken")
        try:
            action()
        finally:
            client.unlink(lock_path, uid=user.uid)
        return True
