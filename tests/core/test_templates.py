"""Template zygotes: profiles, specialized servers, and the registry.

The wire-level lease machinery (park, unpark, SCM_RIGHTS stdio grants,
zygote-mode payloads, exec-mode leases spawned by the specialized
helper) gets exercised against real helpers; the registry tests cover
warm/evict LRU bookkeeping, the miss-grace window, target autoscaling
with idle decay, and the degradation ladder down to the posix_spawn
floor.  Stock, misses and growth concern ``code`` leases only: an
``argv`` lease consumes no parked child.
"""

import errno
import functools
import os
import signal
import socket
import time

import pytest

from repro.core import (ForkServer, SpawnPolicy, TemplateProfile,
                        TemplateRegistry, TemplateServer)
from repro.core import helper as helper_module
from repro.core.strategies import _REGISTRY
from repro.core.templates import AutoscaleConfig, TemplateMiss
from repro.errors import ExecError, SpawnError
from repro.faults import FAULTS, FaultPlan
from repro.obs import TELEMETRY, RingBufferSink
from repro.wire import Channel


def read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 4096)
        if not chunk:
            os.close(fd)
            return b"".join(chunks)
        chunks.append(chunk)


def lease_output(server, *, argv=None, code=None, env=None,
                 cwd=None, spelled="lease") -> bytes:
    """Lease with stdout piped back; waits the child out.  An argv may
    be ``spelled`` ``"spawn"``: the same launch by its inherited name."""
    r, w = os.pipe()
    try:
        if spelled == "spawn":
            child = server.spawn(argv, env=env, cwd=cwd, stdout=w)
        else:
            child = server.lease(argv, code=code, env=env, cwd=cwd, stdout=w)
    finally:
        os.close(w)
    data = read_all(r)
    assert child.wait(timeout=30) == 0
    return data


class TestProfile:
    def test_rejects_nonsense(self):
        with pytest.raises(SpawnError):
            TemplateProfile("")
        with pytest.raises(SpawnError):
            TemplateProfile("p", stock=-1)
        with pytest.raises(SpawnError):
            TemplateProfile("p", stock=4, max_stock=2)

    def test_zero_stock_is_a_valid_floor(self):
        profile = TemplateProfile("cold", stock=0, max_stock=2)
        assert profile.stock == 0

    def test_sequences_coerce_to_tuples(self):
        profile = TemplateProfile("p", preload=["json"], preopen=["/etc"])
        assert profile.preload == ("json",)
        assert profile.preopen == ("/etc",)


@pytest.fixture
def server():
    srv = TemplateServer(TemplateProfile("t", stock=2, max_stock=6))
    srv.start()
    yield srv
    srv.stop()


class TestTemplateServer:
    def test_start_specializes_and_parks_the_floor(self, server):
        assert server.start() is server      # idempotent
        assert server.healthy
        assert server.stock == 2

    def test_exec_mode_lease(self, server):
        out = lease_output(server, argv=["/bin/echo", "leased"])
        assert out == b"leased\n"
        assert server.stock == 2             # spawned: nothing checked out

    def test_leased_child_reports_template_strategy(self, server):
        child = server.lease(["/bin/true"])
        assert child.strategy == "template"
        assert child.wait(timeout=30) == 0

    def test_zygote_mode_runs_inside_the_warm_runtime(self):
        # The parked child must already HAVE the preloaded module —
        # that is the entire point of specializing the template.
        srv = TemplateServer(TemplateProfile(
            "warmed", preload=("decimal",), stock=1, max_stock=2))
        srv.start()
        try:
            out = lease_output(srv, code=(
                "import sys\n"
                "sys.stdout.write("
                "'warm' if 'decimal' in sys.modules else 'cold')\n"))
        finally:
            srv.stop()
        assert out == b"warm"

    def test_zygote_mode_systemexit_becomes_returncode(self, server):
        assert server.lease(code="raise SystemExit(7)").wait(timeout=30) == 7
        assert server.lease(
            code="raise SystemExit('boom')").wait(timeout=30) == 1

    def test_zygote_mode_crash_is_status_125(self, server):
        assert server.lease(code="1/0").wait(timeout=30) == 125

    def test_zygote_mode_env_overlays(self, server):
        out = lease_output(server, code=(
            "import os, sys\n"
            "sys.stdout.write(os.environ['TPL_LEASE'])\n"),
            env={"TPL_LEASE": "per-call"})
        assert out == b"per-call"

    def test_zygote_payload_cannot_import_the_helpers_siblings(self, server):
        # The helper is a real file in repro/core now; however it is
        # launched, a payload's `import result` must look on the
        # caller's path, never next to the helper.
        out = lease_output(server, code=(
            "import sys\n"
            "try:\n"
            "    import result\n"
            "except ImportError:\n"
            "    result = None\n"
            "sys.stdout.write(repr((sys.path[0], result)))\n"))
        assert out == b"('', None)"

    def test_lease_takes_exactly_one_payload(self, server):
        with pytest.raises(SpawnError):
            server.lease(["/bin/true"], code="pass")
        with pytest.raises(SpawnError):
            server.lease()
        with pytest.raises(SpawnError):
            server.lease([])

    def test_empty_stock_raises_template_miss(self):
        srv = TemplateServer(TemplateProfile("dry", stock=0, max_stock=2))
        srv.start()
        try:
            with pytest.raises(TemplateMiss):
                srv.lease(code="pass")
            assert srv.healthy               # a miss is not a crash
            # ...and only a payload can miss: a program needs no stock.
            assert srv.lease(["/bin/true"]).wait(timeout=30) == 0
        finally:
            srv.stop()

    def test_exec_mode_lease_inherits_only_its_stdio(self, server):
        # Lease grants arrive close-on-exec in the helper: after the
        # child's exec only the dup2'd 0-2 remain (3 is ls's listing fd).
        out = lease_output(server, argv=["/bin/ls", "/proc/self/fd"])
        assert out.split() == [b"0", b"1", b"2", b"3"]

    def test_exit_tables_are_empty_after_leases_and_stock_churn(self, server):
        # Leased children are reaped from pushed exit notices through
        # the same ForkServer._reap; parked stock that is withdrawn was
        # never handed to a caller, so its notices are dropped.
        for _ in range(3):
            assert server.lease(["/bin/true"]).wait(timeout=30) == 0
            assert server.lease(code="pass").wait(timeout=30) == 0
            server.restock()
        for _ in range(4):
            server.park()
            assert server.unpark() is not None
        assert server.ping()
        time.sleep(0.2)  # let the withdrawn children's notices arrive
        assert server._channel.exits == {}
        assert server._channel.waiting == 0 and server.in_flight == 0

    def test_park_unpark_move_the_stock_level(self, server):
        pid = server.park()
        assert pid > 0
        assert server.stock == 3
        assert server.unpark() is not None
        assert server.unpark() is not None
        assert server.unpark() is not None
        assert server.stock == 0
        assert server.unpark() is None       # empty: no pid, no error

    def test_restock_caps_at_max_stock(self, server):
        assert server.restock(4) == 2        # 2 parked at start
        assert server.stock == 4
        assert server.restock(99) == 2       # clamped to max_stock=6
        assert server.stock == 6

    def test_profile_env_and_cwd_inherited_by_leases(self, tmp_path):
        workdir = os.path.realpath(str(tmp_path))
        srv = TemplateServer(TemplateProfile(
            "shaped", env={"TPL_PROFILE": "baked-in"}, cwd=workdir,
            stock=2, max_stock=4))
        srv.start()
        try:
            out = lease_output(srv, argv=[
                "/bin/sh", "-c", 'echo "$TPL_PROFILE"; pwd'])
        finally:
            srv.stop()
        assert out.decode().split("\n")[:2] == ["baked-in", workdir]

    def test_specialize_reports_preopened_fds(self, tmp_path):
        path = tmp_path / "preopen.txt"
        path.write_text("warm file\n")
        srv = TemplateServer(TemplateProfile(
            "opened", preopen=(str(path),), stock=0, max_stock=1))
        srv.start()
        try:
            reply = srv.specialize()         # re-applying is harmless
            assert reply["opened"] == 1
        finally:
            srv.stop()

    def test_bad_preload_fails_start_and_stops_the_helper(self):
        srv = TemplateServer(TemplateProfile(
            "broken", preload=("no_such_module_xyz",)))
        with pytest.raises(SpawnError):
            srv.start()
        assert not srv.running

    def test_parked_children_drain_on_stop(self, server):
        pids = [server.park() for _ in range(2)]
        server.stop()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                return
            time.sleep(0.02)
        pytest.fail(f"parked children outlived their template: {pids}")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def helper_fds(server) -> list:
    return sorted(os.listdir(f"/proc/{server._pid}/fd"), key=int)


class TestExecLeaseIsASpawn:
    """An argv lease is the inherited ``spawn``: a posix_spawn from the
    specialized helper, by whichever of its two names it is called."""

    SPELLINGS = ("lease", "spawn")

    def test_argv_leases_leave_stock_and_park_counter_alone(self, server):
        TELEMETRY.enable(RingBufferSink(), reset_metrics=True)
        try:
            for spelled in self.SPELLINGS * 3:
                child = getattr(server, spelled)(["/bin/true"])
                assert child.strategy == "template"
                assert child.wait(timeout=30) == 0
                assert server.stock == 2
            metrics = TELEMETRY.metrics
            assert metrics.counter("template_lease", profile="t").value == 6
            assert metrics.counter("template_park", profile="t").value == 0
        finally:
            TELEMETRY.disable()
        # The helper agrees: parking one more makes three.
        server.park()
        assert server.stock == 3

    def test_same_observable_child_as_a_parked_one(self, tmp_path):
        # What an exec lease inherited from its parked interpreter it
        # now inherits from the helper itself: the profile's env and
        # cwd, its preopened fds, and nothing else beyond 0-2.
        workdir = os.path.realpath(str(tmp_path))
        (tmp_path / "sub").mkdir()
        warm_file = tmp_path / "preopen.txt"
        warm_file.write_text("warm file\n")
        for spelled in self.SPELLINGS:
            # A server each: the preopened file's offset is shared.
            srv = TemplateServer(TemplateProfile(
                "shaped", env={"TPL_PROFILE": "baked-in"}, cwd=workdir,
                preopen=(str(warm_file),), stock=0))
            srv.start()
            try:
                self.observe(srv, spelled, workdir, str(warm_file))
            finally:
                srv.stop()

    @staticmethod
    def observe(srv, spelled, workdir, warm_file):
        output = functools.partial(lease_output, srv, spelled=spelled)
        show = ["/bin/sh", "-c", 'echo "$TPL_PROFILE/$TPL_LEASE"; pwd']
        assert output(argv=show).decode().split() == ["baked-in/", workdir]
        # A per-lease env REPLACES the environment, as execvpe did.
        assert output(
            argv=show, env={"TPL_LEASE": "per-call"},
            cwd=os.path.join(workdir, "sub")).decode().split() == [
                "/per-call", os.path.join(workdir, "sub")]
        # 0-2, the preopen, and ls's own listing fd: nothing else.
        listing = output(argv=["/bin/ls", "-l", "/proc/self/fd"]).decode()
        links = {left.split()[-1]: target for left, _, target in
                 (line.partition(" -> ") for line in listing.splitlines())
                 if target}
        preopened = [fd for fd, target in links.items()
                     if target == warm_file]
        assert len(preopened) == 1 and len(links) == 5
        assert {"0", "1", "2"} < set(links)
        assert output(argv=[
            "/bin/sh", "-c", f"cat <&{preopened[0]}"]) == b"warm file\n"
        # A missing binary is the request's typed refusal, not a child.
        with pytest.raises(ExecError) as failure:
            getattr(srv, spelled)(["/no/such/binary"])
        assert failure.value.errno == errno.ENOENT
        assert srv.healthy

    def test_refused_lease_is_typed_and_closes_its_grant(self):
        plan = FaultPlan().add("refuse_exec", point="helper", times=3)
        with FAULTS.active(plan):
            srv = TemplateServer(TemplateProfile("t", stock=1)).start()
        try:
            before = helper_fds(srv)
            launches = [functools.partial(getattr(srv, spelled), ["/bin/true"])
                        for spelled in self.SPELLINGS]
            # A payload is refused the same way, and costs no parked child.
            launches.append(functools.partial(srv.lease, code="pass"))
            for launch in launches:
                with pytest.raises(SpawnError) as excinfo:
                    launch()
                assert "EACCES" in str(excinfo.value)
                assert not isinstance(excinfo.value, TemplateMiss)
                assert srv.stock == 1
            # A grant that partially arrived is refused, program or payload.
            for member in ({"argv": ["/bin/true"]}, {"code": "pass"}):
                reply = srv._roundtrip({"op": "spawn", "reqs": [
                    dict(member, nfds=3)]}, fds=(0, 1))
                assert "EPROTO" in reply["error"] and reply["stock"] == 1
            assert helper_fds(srv) == before
            for spelled in self.SPELLINGS:
                assert getattr(srv, spelled)(
                    ["/bin/true"]).wait(timeout=30) == 0
            assert helper_fds(srv) == before and srv.stock == 1
        finally:
            srv.stop()


class TestFailedForkIsARefusal:
    def test_op_spawn_answers_eagain_and_closes_the_grant(self, monkeypatch):
        # spawn_one raises with the grant open when even the fork fails
        # (EAGAIN under pid pressure).  That is one request's refusal,
        # not the helper's death: the loop — and with it everything in
        # flight and every child still held — must outlive it.
        def no_pids(*args, **kwargs):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(helper_module.os, "posix_spawn", no_pids)
        monkeypatch.setattr(helper_module.os, "fork", no_pids)
        helper = object.__new__(helper_module.Helper)
        helper.faults = {}
        helper.environ = dict(os.environ)
        grant = [os.dup(0), os.dup(1), os.dup(2)]
        try:
            reply = helper.op_spawn({"op": "spawn", "reqs": [
                {"argv": ["/bin/true"], "nfds": 3}]}, grant)
            assert (reply["error"].startswith("EAGAIN")
                    and "results" not in reply)
            for fd in grant:
                with pytest.raises(OSError):
                    os.fstat(fd)
        finally:
            helper_module.close_all(grant)


class TestAPayloadIsASpawnMember:
    def test_a_payload_and_a_program_put_one_spawn_each_on_the_wire(
            self, server, monkeypatch):
        sent = []
        real = Channel.send

        def recording(self, obj, *args, **kwargs):
            sent.append(obj)
            return real(self, obj, *args, **kwargs)

        monkeypatch.setattr(Channel, "send", recording)
        assert server.lease(code="pass").wait(timeout=30) == 0
        assert server.spawn(["/bin/true"]).wait(timeout=30) == 0
        assert [obj["op"] for obj in sent] == ["spawn", "spawn"]
        [payload], [program] = (obj["reqs"] for obj in sent)
        assert payload.pop("code") == "pass"
        assert program.pop("argv") == ["/bin/true"]
        assert payload == program


class TestOnlyADryStockMisses:
    """The helper names an empty stock apart from every other refusal,
    and only that name becomes :class:`TemplateMiss`."""

    @pytest.mark.parametrize("error, miss", [
        (helper_module.refused("spawn member 0",
                               helper_module.StockExhausted()), True),
        (helper_module.refused("spawn member 0",
                               OSError(11, "Resource temporarily unavailable")),
         False),
        ("EACCES: spawn of 1 refused (injected fault)", False),
    ], ids=["stock-exhausted", "fork-eagain", "eacces"])
    def test_refusal(self, monkeypatch, error, miss):
        monkeypatch.setattr(ForkServer, "_send",
                            lambda self, *args, **kwargs: None)
        monkeypatch.setattr(ForkServer, "_result",
                            lambda self, sent: {"error": error, "stock": 0})
        srv = TemplateServer(TemplateProfile("t"))
        for launch in (functools.partial(srv.lease, ["/bin/true"]),
                       functools.partial(srv.lease, code="pass")):
            with pytest.raises(SpawnError) as excinfo:
                launch()
            assert isinstance(excinfo.value, TemplateMiss) is miss

    def test_a_dry_stock_refuses_and_undoes_the_whole_unit(self,
                                                           monkeypatch):
        # A program member spawned ahead of a payload member that finds
        # no parked child is killed and reaped: all or nothing.
        spawned = []

        def spawn_one(*args):
            spawned.append(real(*args))
            return spawned[-1]

        real = helper_module.spawn_one
        monkeypatch.setattr(helper_module, "spawn_one", spawn_one)
        helper = object.__new__(helper_module.Helper)
        helper.faults = {}
        helper.environ = dict(os.environ)
        helper.stock = []
        grant = [os.dup(0), os.dup(1), os.dup(2)]
        try:
            reply = helper.op_spawn({"op": "spawn", "reqs": [
                {"argv": ["/bin/sleep", "30"], "nfds": 0},
                {"code": "pass", "nfds": 3}]}, grant)
            assert reply == {"error": "EAGAIN: warm stock exhausted"}
            for fd in grant:
                with pytest.raises(OSError):
                    os.fstat(fd)
            [(pid, _)] = spawned
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped by the undo
        finally:
            helper_module.close_all(grant)


class TestParkedChildDeath:
    def test_reap_prunes_a_dead_parked_child_from_the_stock(self, server):
        # The helper learns of the death when it reaps the zombie; the
        # stock it reports from then on must not count the corpse.
        doomed = server.park()
        assert server.stock == 3
        os.kill(doomed, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while _alive(doomed) and time.monotonic() < deadline:
            time.sleep(0.01)                 # gone once the helper reaped it
        assert not _alive(doomed)
        server.park()
        assert server.stock == 3             # not 4
        assert server.lease(code="pass").wait(timeout=30) == 0
        assert server.stock == 2

    def test_lease_skips_a_parked_child_that_died_unreaped(self):
        # The race reap() cannot close: the child died after the last
        # reap pass, so its wake socket refuses the payload.
        dead_ours, dead_theirs = socket.socketpair()
        dead_theirs.close()
        ours, theirs = socket.socketpair()
        helper = object.__new__(helper_module.Helper)
        helper.faults = {}
        helper.stock = [(111, dead_ours), (222, ours)]
        try:
            reply = helper.op_spawn({"op": "spawn", "reqs": [
                {"code": "pass", "nfds": 0}]}, [])
            assert reply["results"][0]["pid"] == 222 and helper.stock == []
            request, grant = helper_module.recv_frame(theirs, 3)
            assert request["code"] == "pass" and grant == []
        finally:
            theirs.close()


SNAPPY = AutoscaleConfig(idle_ttl=5.0, step=2)


class TestRegistry:
    def test_constructor_validation(self):
        with pytest.raises(SpawnError):
            TemplateRegistry(max_templates=0)
        with pytest.raises(SpawnError):
            TemplateRegistry(miss_grace=-0.1)
        for knobs in ({"step": 0}, {"idle_ttl": -1.0}):
            with pytest.raises(SpawnError):
                AutoscaleConfig(**knobs)

    def test_register_warm_and_lease(self):
        with TemplateRegistry(autoscale=SNAPPY) as registry:
            registry.register(TemplateProfile("p", stock=2, max_stock=4))
            assert registry.profiles() == ["p"]
            assert registry.warm_count == 1
            assert registry.stock("p") == 2
            child = registry.spawn("p", ["/bin/true"])
            assert child.strategy == "template"
            assert child.wait(timeout=30) == 0

    def test_duplicate_and_unknown_profiles_rejected(self):
        with TemplateRegistry() as registry:
            registry.register(TemplateProfile("p"), warm=False)
            with pytest.raises(SpawnError):
                registry.register(TemplateProfile("p"), warm=False)
            with pytest.raises(SpawnError):
                registry.spawn("ghost", ["/bin/true"])
            with pytest.raises(SpawnError):
                registry.warm("ghost")

    def test_register_cold_keeps_no_helper(self):
        with TemplateRegistry() as registry:
            registry.register(TemplateProfile("lazy"), warm=False)
            assert registry.warm_count == 0
            assert registry.server_for("lazy") is None
            assert registry.stock("lazy") == 0

    def test_close_is_idempotent_and_fences_register(self):
        registry = TemplateRegistry()
        registry.register(TemplateProfile("p"), warm=False)
        registry.close()
        registry.close()
        assert registry.closed
        with pytest.raises(SpawnError):
            registry.register(TemplateProfile("late"), warm=False)
        with pytest.raises(SpawnError):
            registry.warm("p")

    def test_lru_eviction_past_the_template_bound(self):
        with TemplateRegistry(max_templates=1, autoscale=SNAPPY) as registry:
            registry.register(TemplateProfile("old", stock=1, max_stock=2))
            assert registry.warm_count == 1
            registry.register(TemplateProfile("hot", stock=1, max_stock=2))
            assert registry.evictions == 1
            assert registry.warm_count == 1
            assert registry.server_for("old") is None
            assert registry.server_for("hot") is not None
            # The evicted profile still spawns — down the ladder.
            child = registry.spawn("hot", ["/bin/true"])
            assert child.wait(timeout=30) == 0

    def test_miss_grace_rides_out_a_drained_stock(self):
        # Drain the warm stock behind the registry's back, then spawn:
        # the miss must wait for the restock thread instead of paying
        # a cold fallback spawn.
        with TemplateRegistry(autoscale=SNAPPY) as registry:
            registry.register(TemplateProfile("p", stock=1, max_stock=8))
            drained = registry.server_for("p").lease(code="pass")
            assert drained.wait(timeout=30) == 0
            child = registry.spawn("p", code="pass")
            assert child.strategy == "template"
            assert child.wait(timeout=30) == 0

    def test_miss_grows_the_stock_target(self):
        with TemplateRegistry(autoscale=SNAPPY,
                              miss_grace=0.0) as registry:
            profile = TemplateProfile("p", stock=1, max_stock=4)
            registry.register(profile)
            entry = registry._entries["p"]
            assert entry.target == 1
            drained = registry.server_for("p").lease(code="pass")
            assert drained.wait(timeout=30) == 0
            try:
                # A program is no demand for parked stock...
                child = registry.spawn("p", ["/bin/true"])
                assert child.strategy == "template"
                assert child.wait(timeout=30) == 0
                assert entry.target == 1
                # ...a payload that finds none is.
                child = registry.spawn("p", code="pass")
                assert child.wait(timeout=30) == 0
            finally:
                _REGISTRY["forkserver-pool"].shutdown()
            assert entry.target == 1 + SNAPPY.step

    def test_programs_provision_no_zygotes(self):
        # A program consumes no parked child, so one that finds its
        # profile cold re-warms the helper and asks for nothing more;
        # a payload in the same spot is demand for stock.
        def settle(registry, request):
            registry.register(TemplateProfile("p", stock=0, max_stock=4),
                              warm=False)
            for _ in range(3):
                assert registry.spawn("p", **request).wait(timeout=30) == 0
            deadline = time.monotonic() + 10
            while registry.warm_count == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)      # restock passes enough to fill any target
            return registry._entries["p"].target, registry.stock("p")

        try:
            with TemplateRegistry(autoscale=SNAPPY) as registry:
                assert settle(registry, {"argv": ["/bin/true"]}) == (0, 0)
            with TemplateRegistry(autoscale=SNAPPY) as registry:
                target, stock = settle(registry, {"code": "pass"})
                assert target >= SNAPPY.step and stock >= 1
        finally:
            _REGISTRY["forkserver-pool"].shutdown()

    def test_idle_decay_returns_target_to_the_floor(self):
        decay = AutoscaleConfig(idle_ttl=0.05, step=2)
        with TemplateRegistry(autoscale=decay,
                              miss_grace=0.5) as registry:
            registry.register(TemplateProfile("p", stock=1, max_stock=8))
            drained = registry.server_for("p").lease(code="pass")
            assert drained.wait(timeout=30) == 0
            child = registry.spawn("p", code="pass")     # miss: target grows
            assert child.wait(timeout=30) == 0
            entry = registry._entries["p"]
            assert entry.target > 1
            deadline = time.monotonic() + 5
            while entry.target > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert entry.target == 1

    def test_an_idle_registry_makes_no_restock_passes(self):
        # The lease wakes the restock thread to park a replacement;
        # once the stock is back on target nothing else happens until
        # the next event.
        with TemplateRegistry() as registry:
            registry.register(TemplateProfile("p", stock=2, max_stock=4))
            assert registry.spawn("p", code="pass").wait(timeout=30) == 0
            deadline = time.monotonic() + 10
            while registry.stock("p") < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert registry.stock("p") == 2
            passes = []
            service = registry._service
            registry._service = lambda entry: (passes.append(entry),
                                               service(entry))
            time.sleep(1.0)
            assert passes == []

    def test_a_refused_park_waits_for_the_next_event(self):
        # A live helper that cannot fork (EAGAIN) refuses the park; the
        # restock thread tries again on the next lease, not in a loop.
        with TemplateRegistry() as registry:
            registry.register(TemplateProfile("p", stock=2, max_stock=4))
            server = registry.server_for("p")
            refusals = []

            def refuse(timeout=None):
                refusals.append(timeout)
                raise SpawnError("template 'p' park refused: EAGAIN")
            server.park = refuse
            for leases in (1, 2):
                assert registry.spawn("p", code="pass").wait(
                    timeout=30) == 0
                deadline = time.monotonic() + 10
                while (len(refusals) < leases
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                time.sleep(0.5)
                assert len(refusals) == leases and server.healthy

    def test_a_profile_that_cannot_specialize_boots_once_per_miss(
            self, monkeypatch):
        boots = []
        start = TemplateServer.start

        def counted(server):
            boots.append(server.profile.name)
            return start(server)
        monkeypatch.setattr(TemplateServer, "start", counted)
        with TemplateRegistry(miss_grace=0.0, policy=SpawnPolicy(
                fallback=("posix_spawn",))) as registry:
            registry.register(TemplateProfile(
                "broken", preload=("no_such_module_xyz",), stock=0,
                max_stock=2), warm=False)
            for misses in (1, 2):
                child = registry.spawn("broken", ["/bin/true"])
                assert child.strategy == "posix_spawn"
                assert child.wait(timeout=30) == 0
                deadline = time.monotonic() + 10
                while len(boots) < misses and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(1.0)  # idle: no event, so no further boot
                assert len(boots) == misses
            assert registry.warm_count == 0

    def test_lease_telemetry_counters(self):
        sink = RingBufferSink()
        TELEMETRY.enable(sink, reset_metrics=True)
        try:
            with TemplateRegistry(autoscale=SNAPPY) as registry:
                registry.register(TemplateProfile("p", stock=1, max_stock=4))
                child = registry.spawn("p", ["/bin/true"])
                assert child.wait(timeout=30) == 0
            metrics = TELEMETRY.metrics
            assert metrics.counter("template_lease", profile="p").value == 1
            assert metrics.counter("template_park", profile="p").value >= 1
            assert metrics.gauge("template_stock", profile="p").value >= 0
            assert any(e.get("action") == "warm" for e in sink.events())
        finally:
            TELEMETRY.disable()


class TestDegradationLadder:
    def test_cold_stock_with_no_grace_rides_the_pool(self):
        sink = RingBufferSink()
        TELEMETRY.enable(sink, reset_metrics=True)
        try:
            with TemplateRegistry(autoscale=SNAPPY,
                                  miss_grace=0.0) as registry:
                registry.register(TemplateProfile("dry", stock=0,
                                                  max_stock=2))
                child = registry.spawn("dry", code="pass")
                assert child.strategy == "forkserver-pool"
                assert child.wait(timeout=30) == 0
            metrics = TELEMETRY.metrics
            assert metrics.counter("template_lease_miss",
                                   profile="dry").value >= 1
            assert metrics.counter("fallback",
                                   strategy="forkserver-pool").value >= 1
        finally:
            TELEMETRY.disable()
            _REGISTRY["forkserver-pool"].shutdown()

    def test_code_payload_degrades_to_python_dash_c_with_preloads(self):
        with TemplateRegistry(autoscale=SNAPPY,
                              miss_grace=0.0) as registry:
            registry.register(TemplateProfile(
                "dry", preload=("decimal",), stock=0, max_stock=2))
            try:
                # The fallback must re-pay the imports the template
                # would have given us for free — but honestly: the
                # preamble makes the preloaded names importable.
                child = registry.spawn("dry", code=(
                    "import sys\n"
                    "sys.exit(0 if 'decimal' in sys.modules else 9)\n"))
                assert child.strategy == "forkserver-pool"
                assert child.wait(timeout=30) == 0
            finally:
                _REGISTRY["forkserver-pool"].shutdown()

    def test_an_exec_failure_is_no_miss_and_no_degradation(self):
        TELEMETRY.enable(sink=None, reset_metrics=True)
        try:
            with TemplateRegistry(autoscale=SNAPPY) as registry:
                registry.register(TemplateProfile("p", stock=1,
                                                  max_stock=2))
                helper = registry.server_for("p").helper_pid
                with pytest.raises(ExecError):
                    registry.spawn("p", ["/no/such/binary"])
                assert registry.server_for("p").helper_pid == helper
                counted = {name for name, _, _ in
                           TELEMETRY.metrics.counters()}
                assert not {"template_lease_miss", "fallback"} & counted
            with self.cold_registry("posix_spawn") as registry:
                with pytest.raises(ExecError):
                    registry.spawn("dry", ["/no/such/binary"])
        finally:
            TELEMETRY.disable()

    @staticmethod
    def cold_registry(*fallback):
        """One cold profile that degrades at once, down ``fallback``."""
        registry = TemplateRegistry(autoscale=SNAPPY, miss_grace=0.0,
                                    policy=SpawnPolicy(fallback=fallback))
        registry.register(TemplateProfile("dry", stock=0, max_stock=2))
        return registry

    def test_posix_spawn_floor(self):
        with self.cold_registry("posix_spawn") as registry:
            read_fd, write_fd = os.pipe()
            try:
                child = registry.spawn("dry", code="print('floor')",
                                       stdout=write_fd)
            finally:
                os.close(write_fd)
            assert child.strategy == "posix_spawn"
            assert child.wait(timeout=30) == 0
            with open(read_fd, "rb") as out:
                assert out.read() == b"floor\n"

    def test_posix_spawn_floor_cannot_express_cwd(self):
        with self.cold_registry("posix_spawn") as registry:
            with pytest.raises(SpawnError, match="cwd"):
                registry.spawn("dry", code="pass", cwd="/tmp")

    def test_unknown_tier_rejected(self):
        with self.cold_registry("warp-drive") as registry:
            with pytest.raises(SpawnError, match="unknown strategy"):
                registry.spawn("dry", code="pass")
