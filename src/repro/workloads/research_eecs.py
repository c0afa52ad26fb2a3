"""The EECS workload: research, development, and desktop noise.

Models the departmental home-directory server of Section 3.1 / 6.1.1:
one user per workstation (NFS over UDP, a mix of v2 and v3 clients),
with the activity mix the paper attributes to EECS:

* **Stat sweeps** — ``make`` dependency checks, ``ls``, editor polls:
  the lookup/getattr/access traffic that makes EECS metadata-dominated.
* **Edit/save cycles** — editor backups (``file~``), autosaves
  (``#file#``), and in-place rewrites.
* **Builds** — read sources, write objects via compiler temp + rename
  (so stale objects die by *deletion*, not truncation), link, and the
  occasional ``make clean``.
* **Web browsing** — browser caches live in home directories on EECS;
  cache files churn (create/read/delete) and the cache ``index.db`` is
  rewritten in place on every insertion.
* **Status/log writers** — small unbuffered rewrites of the same
  blocks at sub-second spacing; the paper traces most sub-second block
  deaths to exactly these files.
* **Window-manager Applet files** — the ``Applet_*_Extern``
  create/delete churn (~10k/day at full scale).
* **Night cron jobs** — batch builds and data processing that produce
  the off-peak load spikes that make EECS "unpredictable".
* **Experiment databases** — dbm-style files written at slots beyond
  EOF, the source of the ~25% of block births by extension (Table 4).
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
class EecsParams:
    """Tunable knobs for the EECS generator."""

    users: int = 16
    v2_fraction: float = 0.25  # paper: most v3, many v2; all UDP
    sources_per_project: tuple[int, int] = (8, 20)
    source_bytes: tuple[int, int] = (2_000, 40_000)
    sessions_per_user_day: float = 2.0
    session_mean_duration: float = 5400.0  # ~90 minutes
    step_interval: float = 75.0  # think time between actions
    build_probability: float = 0.05
    clean_probability: float = 0.10  # make clean, given a build
    edit_probability: float = 0.18
    sweep_probability: float = 0.40
    browse_probability: float = 0.16
    status_probability: float = 0.20
    log_probability: float = 0.18
    dbm_probability: float = 0.06
    data_read_probability: float = 0.05
    mail_probability: float = 0.20
    #: browsing a colleague's shared project tree (the server holds
    #: "shared project and data files", Section 3.1): foreign reads
    #: miss the reader's cache, so these are real wire reads
    peer_read_probability: float = 0.12
    #: workstation page cache in 8 KB blocks (128 MB-class machines)
    client_cache_blocks: int = 384
    #: fraction of users working through the shared intermediate host
    #: (Section 3.1: non-NFS protocols like Samba were converted to NFS
    #: by one gateway, which hides the actual source of that activity)
    gateway_fraction: float = 0.2
    status_burst: tuple[int, int] = (12, 32)
    status_spacing: float = 0.3  # sub-second unbuffered rewrites
    cache_file_bytes: tuple[int, int] = (8_000, 80_000)
    cache_max_files: int = 40
    applets_per_user_day: float = 25.0
    cron_users_fraction: float = 0.3
    cron_data_bytes: tuple[int, int] = (2_500_000, 14_000_000)


class EecsResearchWorkload(WorkloadGenerator):
    """Generates the EECS research workload onto a TracedSystem."""

    def __init__(self, params: EecsParams | None = None, *, group=None) -> None:
        super().__init__("eecs", group=group)
        self.params = params if params is not None else EecsParams()
        self.diurnal = DiurnalModel()
        self.population: UserPopulation | None = None
        #: per-uid list of project source names (for builds/sweeps)
        self._sources: dict[int, list[str]] = {}
        self._cache_files: dict[int, list[str]] = {}
        self._db_slots: dict[int, int] = {}
        #: uids whose traffic is relayed through the gateway host
        self._gateway_users: set[int] = set()

    # -- setup -----------------------------------------------------------------

    def populate(self, system: TracedSystem) -> None:
        """Home directories with project trees, caches, and logs."""
        p = self.params
        rng = system.rngs.stream("eecs.populate")
        indices = self.population_indices(p.users)
        self.population = UserPopulation(
            p.users if indices is None else len(indices), rng,
            first_uid=2000, gid=200, login_prefix="eu", indices=indices,
        )
        fs = system.fs
        for user in self.population:
            home = fs.makedirs(user.home, 0.0, uid=user.uid, gid=user.gid)
            project = fs.mkdir(home.handle, "project", 0.0, uid=user.uid, gid=user.gid)
            names: list[str] = []
            for i in range(rng.randint(*p.sources_per_project)):
                name = namespaces.source_name(rng, i)
                node = fs.create(project.handle, name, 0.0, uid=user.uid, gid=user.gid)
                fs.write(node.handle, 0, rng.randint(*p.source_bytes), 0.0)
                names.append(name)
                rcs = fs.create(
                    project.handle, namespaces.rcs_name(name), 0.0,
                    uid=user.uid, gid=user.gid,
                )
                fs.write(rcs.handle, 0, rng.randint(*p.source_bytes) * 2, 0.0)
            self._sources[user.uid] = names
            cache_dir = fs.makedirs(
                f"{user.home}/.browser/cache", 0.0, uid=user.uid, gid=user.gid
            )
            cached: list[str] = []
            for _ in range(rng.randint(5, 15)):
                name = namespaces.browser_cache_name(rng)
                node = fs.create(cache_dir.handle, name, 0.0, uid=user.uid, gid=user.gid)
                fs.write(node.handle, 0, rng.randint(*p.cache_file_bytes), 0.0)
                cached.append(name)
            self._cache_files[user.uid] = cached
            index = fs.create(cache_dir.handle, "index.db", 0.0, uid=user.uid, gid=user.gid)
            fs.write(index.handle, 0, 3 * BLOCK_SIZE, 0.0)
            for i in range(2):
                node = fs.create(
                    home.handle, namespaces.log_name(i), 0.0, uid=user.uid, gid=user.gid
                )
                fs.write(node.handle, 0, rng.randint(500, 6000), 0.0)
            status = fs.create(home.handle, ".status", 0.0, uid=user.uid, gid=user.gid)
            fs.write(status.handle, 0, 700, 0.0)
            spool = fs.create(home.handle, ".mailspool", 0.0, uid=user.uid, gid=user.gid)
            fs.write(spool.handle, 0, rng.randint(1_000, 12_000), 0.0)
            makefile = fs.create(project.handle, "Makefile", 0.0, uid=user.uid, gid=user.gid)
            fs.write(makefile.handle, 0, rng.randint(1_500, 7_000), 0.0)
            db = fs.create(
                home.handle, namespaces.index_name(0), 0.0, uid=user.uid, gid=user.gid
            )
            fs.write(db.handle, 0, 2 * BLOCK_SIZE, 0.0)
            self._db_slots[user.uid] = 2
            data = fs.create(home.handle, "dataset.dat", 0.0, uid=user.uid, gid=user.gid)
            fs.write(data.handle, 0, rng.randint(*p.cron_data_bytes), 0.0)

    def install(self, system: TracedSystem) -> None:
        """One workstation client per user plus the arrival processes."""
        p = self.params
        rng = system.rngs.stream("eecs.install")
        mean_mult = sum(self.diurnal.hourly_profile()) / len(
            self.diurnal.hourly_profile()
        )
        # the shared intermediate host for non-NFS protocol users
        system.add_client(
            f"gateway.{self.domain('eecs')}", transport=Transport.UDP,
            version=NfsVersion.V3,
            nfsiod_count=8, cache_blocks=p.client_cache_blocks,
            name_timeout=900.0,
        )
        for user in self.population:
            if rng.random() < p.gateway_fraction:
                self._gateway_users.add(user.uid)
            version = (
                NfsVersion.V2 if rng.random() < p.v2_fraction else NfsVersion.V3
            )
            system.add_client(
                self._host(user), transport=Transport.UDP, version=version,
                nfsiod_count=rng.choice((4, 4, 8)),
                cache_blocks=p.client_cache_blocks,
                name_timeout=900.0,
            )
            user_rng = system.rngs.stream(f"eecs.user.{user.uid}")
            rate = p.sessions_per_user_day * user.activity
            interval = SECONDS_PER_DAY * mean_mult / max(rate, 0.1)
            self._schedule_session(system, user, user_rng, interval)
            applet_interval = SECONDS_PER_DAY * mean_mult / max(
                p.applets_per_user_day * user.activity, 0.1
            )
            self._schedule_applet(system, user, user_rng, applet_interval)
            if user_rng.random() < p.cron_users_fraction:
                self._schedule_cron(system, user, user_rng)

    def _host(self, user: User) -> str:
        return f"ws-{user.login}.{self.domain('eecs')}"

    def _client(self, system: TracedSystem, user: User):
        if user.uid in self._gateway_users:
            return system.clients[f"gateway.{self.domain('eecs')}"]
        return system.clients[self._host(user)]

    # -- interactive sessions ---------------------------------------------------

    def _schedule_session(self, system, user, rng, interval) -> None:
        when = self.diurnal.next_arrival(system.clock.now, interval, rng)
        system.loop.schedule(
            when, lambda: self._start_session(system, user, rng, interval)
        )

    def _start_session(self, system, user, rng, interval) -> None:
        p = self.params
        self.count("sessions")
        duration = min(
            max(rng.expovariate(1.0 / p.session_mean_duration), 600.0),
            4 * p.session_mean_duration,
        )
        end_time = system.clock.now + duration
        self._schedule_step(system, user, rng, end_time)
        system.loop.schedule(
            end_time, lambda: self._schedule_session(system, user, rng, interval)
        )

    def _schedule_step(self, system, user, rng, end_time) -> None:
        when = system.clock.now + rng.expovariate(1.0 / self.params.step_interval)
        if when >= end_time:
            return
        system.loop.schedule(when, lambda: self._step(system, user, rng, end_time))

    def _step(self, system, user, rng, end_time) -> None:
        """One interactive action, drawn from the session mix."""
        p = self.params
        actions = (
            (p.sweep_probability, self._stat_sweep),
            (p.edit_probability, self._edit_save),
            (p.build_probability, self._build),
            (p.browse_probability, self._browse),
            (p.status_probability, self._status_burst),
            (p.log_probability, self._log_append),
            (p.dbm_probability, self._dbm_write),
            (p.data_read_probability, self._data_read),
            (p.mail_probability, self._mail_activity),
            (p.peer_read_probability, self._peer_read),
        )
        total = sum(weight for weight, _ in actions)
        draw = rng.random() * total
        for weight, action in actions:
            draw -= weight
            if draw <= 0:
                action(system, user, rng)
                break
        self._schedule_step(system, user, rng, end_time)

    # -- the individual activities -------------------------------------------------

    def _stat_sweep(self, system, user, rng) -> None:
        """make/ls: readdir + stat every project file (metadata storm)."""
        client = self._client(system, user)
        project = f"{user.home}/project"
        try:
            names = client.readdir(project, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        for name in names:
            client.stat(f"{project}/{name}", uid=user.uid, gid=user.gid)
        # make re-reads the Makefile on every invocation
        try:
            of = client.open(f"{project}/Makefile", uid=user.uid, gid=user.gid)
            client.read(of, 0, of.size)
            client.close(of)
        except FileNotFoundError:
            pass
        self.count("sweeps")

    def _edit_save(self, system, user, rng) -> None:
        """Editor save: backup copy, autosave, in-place rewrite."""
        client = self._client(system, user)
        sources = self._sources.get(user.uid)
        if not sources:
            return
        name = rng.choice(sources)
        path = f"{user.home}/project/{name}"
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        size = of.size
        client.read(of, 0, size)
        # backup file~: read already done, write the copy
        if rng.random() < 0.35:
            backup = f"{user.home}/project/{namespaces.backup_name(name)}"
            try:
                b_of = client.create(backup, uid=user.uid, gid=user.gid)
                client.write(b_of, 0, size)
                client.close(b_of)
            except OSError:
                pass
        # emacs autosave #name#, deleted shortly after the save lands
        autosave = f"{user.home}/project/{namespaces.autosave_name(name)}"
        try:
            a_of = client.create(autosave, uid=user.uid, gid=user.gid)
            client.write(a_of, 0, min(size, 4000))
            client.close(a_of)
            system.loop.schedule_in(
                rng.uniform(2.0, 40.0), lambda: client.unlink(autosave, uid=user.uid)
            )
        except OSError:
            pass
        # the save itself: rewrite in place with a small size change
        new_size = max(500, size + rng.randint(-400, 900))
        client.write(of, 0, new_size)
        if new_size < size:
            client.truncate(of, new_size)
        client.close(of)
        self.count("saves")

    def _build(self, system, user, rng) -> None:
        """Compile: sweep, read sources, temp-object + rename, link."""
        p = self.params
        client = self._client(system, user)
        self._stat_sweep(system, user, rng)
        sources = self._sources.get(user.uid, [])
        project = f"{user.home}/project"
        object_sizes = []
        for name in sources:
            path = f"{project}/{name}"
            try:
                of = client.open(path, uid=user.uid, gid=user.gid)
            except FileNotFoundError:
                continue
            client.read(of, 0, of.size)
            client.close(of)
            # compiler writes a temp object, then renames over the old one
            temp = f"{project}/cc{rng.randrange(10**6):06d}.o"
            try:
                t_of = client.create(temp, uid=user.uid, gid=user.gid)
            except OSError:
                continue
            obj_size = max(1000, int(of.size * rng.uniform(0.6, 1.4)))
            client.write(t_of, 0, obj_size)
            client.close(t_of)
            client.rename(temp, f"{project}/{namespaces.object_name(name)}",
                          uid=user.uid, gid=user.gid)
            object_sizes.append(obj_size)
        # link: read the objects, write the binary
        for name in sources:
            obj = f"{project}/{namespaces.object_name(name)}"
            try:
                of = client.open(obj, uid=user.uid, gid=user.gid)
                client.read(of, 0, of.size)
                client.close(of)
            except FileNotFoundError:
                continue
        try:
            binary = client.create(f"{project}/a.out", uid=user.uid, gid=user.gid)
            client.write(binary, 0, max(4000, sum(object_sizes) // 2))
            client.close(binary)
        except OSError:
            pass
        self.count("builds")
        if rng.random() < p.clean_probability:
            for name in sources:
                client.unlink(f"{project}/{namespaces.object_name(name)}", uid=user.uid)
            client.unlink(f"{project}/a.out", uid=user.uid)
            self.count("cleans")

    def _browse(self, system, user, rng) -> None:
        """Web browsing: cache churn plus index.db rewrites."""
        p = self.params
        client = self._client(system, user)
        cache_dir = f"{user.home}/.browser/cache"
        cached = self._cache_files.setdefault(user.uid, [])
        for _ in range(rng.randint(2, 6)):
            name = namespaces.browser_cache_name(rng)
            path = f"{cache_dir}/{name}"
            try:
                of = client.create(path, uid=user.uid, gid=user.gid)
            except OSError:
                continue
            client.write(of, 0, rng.randint(*p.cache_file_bytes))
            client.close(of)
            cached.append(name)
            # every insertion rewrites the in-place index
            self._rewrite_index(client, user)
        # revisit: read a couple of cached pages
        for name in rng.sample(cached, min(4, len(cached))):
            try:
                of = client.open(f"{cache_dir}/{name}", uid=user.uid, gid=user.gid)
                client.read(of, 0, of.size)
                client.close(of)
            except FileNotFoundError:
                continue
        # evict over the cap
        while len(cached) > p.cache_max_files:
            victim = cached.pop(0)
            client.unlink(f"{cache_dir}/{victim}", uid=user.uid)
            self.count("cache.evictions")
        self.count("browses")

    def _rewrite_index(self, client, user) -> None:
        path = f"{user.home}/.browser/cache/index.db"
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        client.write(of, 0, BLOCK_SIZE)
        client.close(of)

    def _status_burst(self, system, user, rng) -> None:
        """Unbuffered status rewrites: the same block dies every ~0.3 s.

        This is the paper's source of sub-second block deaths ("log or
        index files that are written frequently and in an unbuffered
        manner").
        """
        p = self.params
        client = self._client(system, user)
        path = f"{user.home}/.status"
        count = rng.randint(*p.status_burst)
        self._status_tick(system, client, user, path, count, rng)
        self.count("status.bursts")

    def _status_tick(self, system, client, user, path, remaining, rng) -> None:
        if remaining <= 0:
            return
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        client.write(of, 0, rng.randint(300, 900))
        client.close(of)
        spacing = self.params.status_spacing * rng.uniform(0.6, 1.4)
        system.loop.schedule_in(
            spacing,
            lambda: self._status_tick(system, client, user, path, remaining - 1, rng),
        )

    def _log_append(self, system, user, rng) -> None:
        """Unbuffered log appends: several small writes re-hitting the
        tail block at sub-second spacing."""
        client = self._client(system, user)
        path = f"{user.home}/{namespaces.log_name(rng.randint(0, 1))}"
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        for _ in range(rng.randint(5, 12)):
            client.append(of, rng.randint(80, 400))
        client.close(of)
        # keep logs from growing without bound: rotate occasionally
        if of.size > 512 * 1024:
            client.truncate(of, 0)
            self.count("log.rotations")
        self.count("log.appends")

    def _data_read(self, system, user, rng) -> None:
        """Research data manipulation: read a chunk of a big dataset.

        The dataset dwarfs the workstation cache, so these reads keep
        missing — the read traffic that balances EECS's write volume.
        """
        client = self._client(system, user)
        path = f"{user.home}/dataset.dat"
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        size = of.size
        if size <= 0:
            client.close(of)
            return
        chunk = min(size, rng.randint(100_000, 600_000))
        offset = rng.randrange(0, max(1, size - chunk))
        client.read(of, offset, chunk)
        client.close(of)
        self.count("data.reads")

    def _peer_read(self, system, user, rng) -> None:
        """Browse a colleague's shared project: stat the tree, read a
        few sources.  The files live in the peer's cache, not ours, so
        these reads hit the wire."""
        peers = [u for u in self.population if u.uid != user.uid]
        if not peers:
            return
        peer = rng.choice(peers)
        client = self._client(system, user)
        project = f"{peer.home}/project"
        try:
            names = client.readdir(project, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        sources = [n for n in names if not n.endswith((".o", ",v"))]
        for name in rng.sample(sources, min(3, len(sources))):
            path = f"{project}/{name}"
            attrs = client.stat(path, uid=user.uid, gid=user.gid)
            if attrs is None:
                continue
            try:
                of = client.open(path, uid=user.uid, gid=user.gid)
                client.read(of, 0, min(of.size, 16_384))
                client.close(of)
            except FileNotFoundError:
                continue
        self.count("peer.reads")

    def _mail_activity(self, system, user, rng) -> None:
        """EECS has no mailboxes, but mail clients still leave lock
        files and composition temporaries in home directories
        (Table 1: "A large number of locks for mail and other
        applications")."""
        client = self._client(system, user)
        lock = f"{user.home}/{namespaces.lock_name('.mailspool')}"
        try:
            client.create(lock, uid=user.uid, gid=user.gid, exclusive=True)
        except (FileExistsError, OSError):
            return
        # read the small local spool/notification state
        try:
            of = client.open(f"{user.home}/.mailspool", uid=user.uid, gid=user.gid)
            client.read(of, 0, of.size)
            if rng.random() < 0.4:
                client.append(of, rng.randint(300, 3000))
            if of.size > 60_000:
                client.truncate(of, 1000)
            client.close(of)
        except FileNotFoundError:
            pass
        client.unlink(lock, uid=user.uid)
        self.count("mail.checks")
        if rng.random() < 0.15:
            # composing a message: a short-lived draft temporary
            draft = f"{user.home}/{namespaces.composer_temp_name(rng)}"
            try:
                d_of = client.create(draft, uid=user.uid, gid=user.gid)
                client.write(d_of, 0, rng.randint(300, 6000))
                client.close(d_of)
                system.loop.schedule_in(
                    rng.uniform(20.0, 600.0),
                    lambda: client.unlink(draft, uid=user.uid),
                )
                self.count("mail.drafts")
            except OSError:
                pass

    def _dbm_write(self, system, user, rng) -> None:
        """dbm-style slot writes past EOF: extension block births."""
        client = self._client(system, user)
        path = f"{user.home}/{namespaces.index_name(0)}"
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
        except FileNotFoundError:
            return
        slots = self._db_slots.get(user.uid, 2)
        # mostly extend into new slots (possibly skipping some), with
        # occasional rewrites of existing slots
        if rng.random() < 0.7:
            slot = slots + rng.randint(0, 8)
            self._db_slots[user.uid] = slot + 1
        else:
            slot = rng.randrange(0, max(slots, 1))
        client.write(of, slot * BLOCK_SIZE, rng.randint(500, BLOCK_SIZE))
        client.close(of)
        if self._db_slots.get(user.uid, 2) > 400:
            client.truncate(of, 2 * BLOCK_SIZE)
            self._db_slots[user.uid] = 2
        self.count("dbm.writes")

    # -- applet churn -------------------------------------------------------------

    def _schedule_applet(self, system, user, rng, interval) -> None:
        when = self.diurnal.next_arrival(system.clock.now, interval, rng)
        system.loop.schedule(
            when, lambda: self._applet(system, user, rng, interval)
        )

    def _applet(self, system, user, rng, interval) -> None:
        client = self._client(system, user)
        path = f"{user.home}/{namespaces.applet_name(rng)}"
        try:
            of = client.create(path, uid=user.uid, gid=user.gid)
            client.write(of, 0, rng.randint(100, 1500))
            client.close(of)
            system.loop.schedule_in(
                rng.uniform(5.0, 600.0), lambda: client.unlink(path, uid=user.uid)
            )
            self.count("applets")
        except OSError:
            pass
        self._schedule_applet(system, user, rng, interval)

    # -- night cron jobs ----------------------------------------------------------

    def _schedule_cron(self, system, user, rng) -> None:
        """A nightly batch job at 2-4am, every day."""
        day = int(system.clock.now // SECONDS_PER_DAY)
        when = (day + 1) * SECONDS_PER_DAY + rng.uniform(2.0, 4.0) * 3600.0
        system.loop.schedule(when, lambda: self._cron_job(system, user, rng))

    def _cron_job(self, system, user, rng) -> None:
        """Data processing: long sequential read, derived write, build."""
        client = self._client(system, user)
        path = f"{user.home}/dataset.dat"
        try:
            of = client.open(path, uid=user.uid, gid=user.gid)
            client.read(of, 0, of.size)
            client.close(of)
            out = f"{user.home}/results{rng.randrange(100):02d}.dat"
            out_of = client.create(out, uid=user.uid, gid=user.gid)
            # the processing tool writes records at strided slots
            # (dbm-style), leaving holes -- extension births (Table 4)
            total = max(10_000, of.size // 3)
            stride = rng.randint(2, 3) * BLOCK_SIZE
            offset = 0
            written = 0
            while written < total:
                client.write(out_of, offset, BLOCK_SIZE)
                written += BLOCK_SIZE
                offset += stride
            client.close(out_of)
            # results are consumed and removed before morning
            system.loop.schedule_in(
                rng.uniform(600.0, 3600.0), lambda: client.unlink(out, uid=user.uid)
            )
        except (FileNotFoundError, OSError):
            pass
        self._build(system, user, rng)
        self.count("cron.jobs")
        self._schedule_cron(system, user, rng)
