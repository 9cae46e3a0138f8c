"""The child's environment, on every path that can launch one.

``env=None`` means one thing everywhere — the caller's environment as it
is *now* — and on the forkserver wire it costs nothing while that is
still what the helper was booted with: ``null`` travels, and the helper
launches from a plain copy of its own.  These tests pin the meaning (a
conformance table: every launch path against ``posix_spawn``, byte for
byte), the saving (counts that repeat exactly: frame size, copies made),
and the two defects found on the way — a direct ``ForkServer`` /
``ForkServerPool`` / batch spawn that saw the helper's boot-time
environment, and a malformed request that killed the shared helper.

pytest itself rewrites ``PYTEST_CURRENT_TEST`` between a test's setup
and its call, so a helper meant to see an *untouched* environment is
booted inside the test body, never in a fixture.
"""

import contextlib
import json
import os
import tempfile

import pytest

from repro.core import (BatchRequest, ForkServer, ForkServerPool,
                        ProcessBuilder, SpawnRequest, TemplateProfile,
                        TemplateServer)
from repro.core.attrs import SpawnAttributes
from repro.core.steps import run_steps
from repro.core.strategies import get_strategy
from repro.errors import SpawnError
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)
from repro.obs import NULL_TRACE
from repro.wire import encode_body

ENV = "/usr/bin/env"
TRUE = "/bin/true"
#: Prints the two variables the direct-API tests move.
SHOW = ["/bin/sh", "-c", "echo ${REPRO_T_X-unset} ${REPRO_T_GONE-unset}"]


def lines(output: bytes) -> list:
    return sorted(output.split(b"\n"))


def piped(launch) -> bytes:
    """``launch(write_fd)`` -> the child's whole stdout, child reaped."""
    r, w = os.pipe()
    try:
        child = launch(w)
    finally:
        os.close(w)
    with open(r, "rb") as stream:
        data = stream.read()
    assert child.wait(timeout=30) == 0
    return data


def built(strategy: str, argv, env) -> bytes:
    builder = ProcessBuilder(*argv).strategy(strategy)
    if env is not None:
        builder.env(env)
    return piped(lambda w: builder.stdout_to_fd(w).spawn())


@pytest.fixture
def frames(monkeypatch):
    """Every frame body a ForkServer puts on its wire, decoded."""
    seen = []
    real = ForkServer._send

    def spy(self, obj, fds=(), trace=NULL_TRACE, timeout=None,
            encode=encode_body, wait=True):
        def recording(obj, rid):
            body = encode(obj, rid)
            seen.append(body)
            return body
        return real(self, obj, fds, trace, timeout, recording, wait)

    monkeypatch.setattr(ForkServer, "_send", spy)
    return seen


def spawn_frames(frames) -> list:
    return [body for body in frames if json.loads(body)["op"] == "spawn"]


def env_of(body: bytes):
    """The ``env`` a one-member spawn frame carries."""
    (member,) = json.loads(body)["reqs"]
    return member["env"]


@pytest.fixture
def fresh_singletons():
    """The shared forkserver and pool, booted by the test body's first
    launch (not by some earlier test) and stopped after it."""
    shared = [get_strategy("forkserver"), get_strategy("forkserver-pool")]
    for strategy in shared:
        strategy.shutdown()
    yield
    for strategy in shared:
        strategy.shutdown()


# -- the conformance table ----------------------------------------------------

@contextlib.contextmanager
def launch_paths():
    """Every column of the table, each booted here and now: a name ->
    ``run(env) -> sorted output of /usr/bin/env``."""
    with contextlib.ExitStack() as stack:
        pool = stack.enter_context(ForkServerPool(workers=2))
        template = TemplateServer(TemplateProfile(
            "etl", env={"SERVICE": "etl"}, stock=0)).start()
        stack.callback(template.stop)
        sockdir = stack.enter_context(tempfile.TemporaryDirectory())
        gateway = GatewayServer(GatewayConfig(
            unix_path=os.path.join(sockdir, "gw.sock"),
            tenants={"t": TenantConfig(name="t", token="tok",
                                       strategy="forkserver-pool")})).start()
        stack.callback(gateway.stop)
        client = stack.enter_context(GatewayClient(
            gateway.unix_path, tenant="t", token="tok"))
        for name in ("forkserver", "forkserver-pool"):  # boot them now
            assert built(name, [TRUE], None) == b""

        def batch_member(env):
            def launch(w):
                member = SpawnRequest([ENV], env=env, stdout=w)
                return pool.spawn_batch(BatchRequest.of([member])).children[0]
            return piped(launch)

        yield {
            "posix_spawn": lambda env: built("posix_spawn", [ENV], env),
            "forkserver": lambda env: built("forkserver", [ENV], env),
            "pool single": lambda env: built("forkserver-pool", [ENV], env),
            "pool batch member": batch_member,
            "gateway tenant": lambda env: piped(
                lambda w: client.spawn([ENV], env=env, stdout=w)),
            "template program": lambda env: piped(
                lambda w: template.spawn([ENV], env=env, stdout=w)),
        }


def rendered(env) -> bytes:
    """What ``/usr/bin/env`` prints for ``env``, in some order."""
    return b"".join(os.fsencode(f"{k}={v}\n") for k, v in env.items())


def touch_nothing(monkeypatch):
    pass


def add_a_variable(monkeypatch):
    monkeypatch.setenv("REPRO_T_ADDED", "after boot")


def remove_a_variable(monkeypatch):
    monkeypatch.delenv("REPRO_T_DOOMED")


@pytest.mark.parametrize("touch, env", [
    (touch_nothing, None),
    (add_a_variable, None),
    (remove_a_variable, None),
    (touch_nothing, {"ONLY": "this", "PATH": "/usr/bin:/bin"}),
    (touch_nothing, {}),
], ids=["untouched", "added-after-boot", "removed-after-boot", "replaced",
        "empty"])
def test_every_launch_path_gives_the_child_the_same_environment(
        monkeypatch, fresh_singletons, touch, env):
    """One row of the table: what ``/usr/bin/env`` prints, sorted, must
    equal the ``posix_spawn`` column byte for byte.  Allow-listed: a
    template's program inherits the *profile's* environment — the one
    its helper booted with plus the profile's variables — so ``None``
    there never follows the caller; an explicit ``env`` replaces that
    too, like anywhere.  (The gateway column's daemon lives in this
    process, so its own environment is the caller's.)"""
    monkeypatch.setenv("REPRO_T_DOOMED", "set before boot")
    with launch_paths() as paths:
        at_boot = dict(os.environ)
        touch(monkeypatch)
        reference = lines(paths["posix_spawn"](env))
        assert reference == lines(
            rendered(os.environ if env is None else env))
        for name, run in paths.items():
            expected = reference
            if name == "template program" and env is None:
                expected = lines(rendered({**at_boot, "SERVICE": "etl"}))
            assert lines(run(env)) == expected, name


# -- a bare argv[0] is looked up on the child's PATH, on every path ----------

@pytest.fixture
def every_strategy(monkeypatch, fresh_singletons):
    """The shared gateway strategy too, embedded, booted by the test
    body and stopped after it."""
    monkeypatch.delenv("REPRO_GATEWAY", raising=False)
    gateway = get_strategy("gateway")
    gateway.shutdown()
    yield
    gateway.shutdown()


@pytest.mark.parametrize("strategy", [
    "posix_spawn", "fork_exec", "forkserver", "forkserver-pool", "gateway"])
def test_a_bare_name_is_found_on_the_childs_path(every_strategy, tmp_path,
                                                 strategy):
    """One lookup rule on both sides of the wire, the one ``subprocess``
    follows: a bare ``argv[0]`` is searched on the ``PATH`` of the
    environment the child gets, not the caller's, and a directory of
    that name earlier on it is skipped."""
    found = tmp_path / "bin"
    (tmp_path / "decoy" / "onlyhere").mkdir(parents=True)
    found.mkdir()
    script = found / "onlyhere"
    script.write_text("#!/bin/sh\necho found\n")
    script.chmod(0o755)
    env = {"PATH": f"{tmp_path / 'decoy'}:{found}:/usr/bin:/bin"}
    assert built(strategy, ["onlyhere"], env) == b"found\n"


# -- an inherited environment stays home: counts that repeat exactly ----------

class TestAnInheritedEnvironmentIsNotShipped:
    @pytest.fixture
    def copies(self, monkeypatch):
        """Calls of ``SpawnAttributes.effective_env`` — each one a copy
        of the whole environment."""
        calls = []
        real = SpawnAttributes.effective_env

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(SpawnAttributes, "effective_env", counting)
        return calls

    def test_untouched_null_frame_and_no_copy(self, frames, copies,
                                              fresh_singletons):
        child = ProcessBuilder(TRUE).strategy("forkserver").spawn()
        assert child.wait(timeout=30) == 0
        builder = ProcessBuilder("/bin/echo", "captured").strategy(
            "forkserver").stdout_to_pipe()                # uncached: a pipe
        child = builder.spawn()
        assert builder.io.read_stdout() == b"captured\n"
        assert child.wait(timeout=30) == 0
        builder.io.close()
        default, capture = spawn_frames(frames)
        for body in (default, capture):
            assert env_of(body) is None
            assert len(body) <= 128
        assert b'"env":null' in capture
        assert copies == []

    def test_a_changed_environment_is_shipped_and_seen(
            self, frames, monkeypatch, fresh_singletons):
        assert built("forkserver", SHOW, None) == b"unset unset\n"
        monkeypatch.setenv("REPRO_T_X", "1")
        assert built("forkserver", SHOW, None) == b"1 unset\n"
        before, after = spawn_frames(frames)
        assert env_of(before) is None
        assert env_of(after) == dict(os.environ)

    def test_the_snapshot_is_the_helpers_own_boot(self, monkeypatch, frames):
        """Each helper compares against what *it* was booted with: a
        helper booted after the change inherits it, and says ``null``."""
        with ForkServer() as early:
            monkeypatch.setenv("REPRO_T_X", "1")
            with ForkServer() as late:
                for server in (early, late):
                    out = piped(lambda w: server.spawn(SHOW, stdout=w))
                    assert out == b"1 unset\n"
        shipped, inherited = spawn_frames(frames)
        assert env_of(shipped)["REPRO_T_X"] == "1"
        assert env_of(inherited) is None

    def test_no_raw_table_means_a_copy_every_time(self, frames):
        with ForkServer() as server:
            server._boot_env = None  # what start() keeps without ``_data``
            assert server.spawn([TRUE]).wait(timeout=30) == 0
        (body,) = spawn_frames(frames)
        assert env_of(body) == dict(os.environ)

    def test_a_template_never_ships_the_callers_environment(
            self, frames, monkeypatch):
        template = TemplateServer(TemplateProfile(
            "etl", env={"SERVICE": "etl"}, stock=0)).start()
        try:
            monkeypatch.setenv("REPRO_T_X", "1")
            show = ["/bin/sh", "-c", "echo ${REPRO_T_X-unset} $SERVICE"]
            out = piped(lambda w: template.spawn(show, stdout=w))
            assert out == b"unset etl\n"
        finally:
            template.stop()
        (body,) = spawn_frames(frames)
        assert env_of(body) is None

    def test_what_a_preload_sets_at_import_is_the_profiles_too(self, tmp_path):
        (tmp_path / "sets_env.py").write_text(
            "import os\nos.environ['FROM_PRELOAD'] = 'yes'\n")
        template = TemplateServer(TemplateProfile(
            "warm", cwd=str(tmp_path), preload=["sets_env"], stock=0)).start()
        try:
            show = ["/bin/sh", "-c", "echo $FROM_PRELOAD"]
            out = piped(lambda w: template.spawn(show, stdout=w))
            assert out == b"yes\n"
        finally:
            template.stop()


# -- env=None on the direct API is the caller's environment, now --------------

def direct_apis():
    def forkserver():
        server = ForkServer().start()
        return server.stop, lambda w: server.spawn(SHOW, stdout=w)

    def pool():
        pool = ForkServerPool(workers=1).start()
        return pool.stop, lambda w: pool.spawn(SHOW, stdout=w)

    def batch_member():
        server = ForkServer().start()
        return server.stop, lambda w: server.spawn_batch(BatchRequest.of(
            [SpawnRequest(SHOW, stdout=w)])).children[0]

    return [forkserver, pool, batch_member]


@pytest.mark.parametrize("boot", direct_apis(), ids=lambda boot: boot.__name__)
def test_env_none_on_the_direct_api_sees_the_callers_environment(
        monkeypatch, frames, boot):
    monkeypatch.setenv("REPRO_T_GONE", "here")
    stop, launch = boot()
    try:
        assert piped(launch) == b"unset here\n"
        os.environ["REPRO_T_X"] = "1"      # set after start(): must be seen
        del os.environ["REPRO_T_GONE"]     # deleted after start(): gone
        assert piped(launch) == b"1 unset\n"
        del os.environ["REPRO_T_X"]
        os.environ["REPRO_T_GONE"] = "here"
        assert piped(launch) == b"unset here\n"
    finally:
        os.environ.pop("REPRO_T_X", None)
        stop()
    envs = [env_of(body) for body in spawn_frames(frames)]
    assert [env is None for env in envs] == [True, False, True]


# -- a malformed request is that request's refusal ----------------------------

MALFORMED = {
    "empty-name": dict(env={"": "x"}),
    "nul-in-name": dict(env={"A\0B": "x"}),
    "nul-in-value": dict(env={"A": "x\0y"}),
    "non-str-value": dict(env={"A": 1}),
    "nul-in-argv": dict(argv=[TRUE, "a\0b"]),
}


def helper_fds(server) -> list:
    return sorted(os.listdir(f"/proc/{server.helper_pid}/fd"), key=int)


class TestAMalformedRequestLeavesTheHelperAlive:
    @pytest.mark.parametrize("strategy", ["posix_spawn", "forkserver"])
    @pytest.mark.parametrize("bad", [
        lambda: ProcessBuilder(TRUE).env({"": "x"}),
        lambda: ProcessBuilder(TRUE).env({"A\0B": "x"}),
        lambda: ProcessBuilder(TRUE).env({"A": "x\0y"}),
        lambda: ProcessBuilder(TRUE, "a\0b"),
    ], ids=["empty-name", "nul-in-name", "nul-in-value", "nul-in-argv"])
    def test_the_builder_refuses_it_typed_before_any_strategy_runs(
            self, strategy, bad, fresh_singletons):
        shared = get_strategy("forkserver")
        assert built("forkserver", [TRUE], None) == b""
        helper = shared.server().helper_pid
        builder = bad().strategy(strategy).stdout_to_pipe()
        with pytest.raises(SpawnError):
            builder.spawn()
        assert builder.io.stdout_fd is None       # a refusal leaks nothing
        assert shared.server().helper_pid == helper

    @pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED)
    def test_the_helper_refuses_it_by_name(self, bad):
        with ForkServer() as server:
            helper, before = server.helper_pid, helper_fds(server)
            with pytest.raises(SpawnError) as refusal:
                server.spawn(bad.get("argv", [TRUE]), env=bad.get("env"))
            assert "EINVAL" in str(refusal.value)
            assert server.healthy and server.helper_pid == helper
            assert helper_fds(server) == before   # its grant closed
            assert server.spawn([TRUE]).wait(timeout=30) == 0

    def test_a_good_request_in_flight_behind_it_is_answered(self):
        with ForkServer() as server:
            def spawn(env):
                return {"op": "spawn", "reqs": [
                    {"argv": [TRUE], "env": env, "cwd": None, "nfds": 3}]}
            bad = server._send(spawn({"": "x"}), (0, 1, 2))
            good = server._send(spawn(None), (0, 1, 2))
            assert "EINVAL" in server._result(bad)["error"]
            (result,) = server._result(good)["results"]
            pid = result["pid"]
            assert server._reap(pid, 0, 30) == 0
            assert server.healthy

    def test_a_batch_holding_one_is_undone_as_a_unit(self):
        """On the wire: ``spawn_batch``'s front door refuses such a
        member before the helper could (``TestACallersMistakeCostsNoHelper``
        in test_forkserver_batch.py)."""
        with ForkServer() as server:
            before = helper_fds(server)
            r, w = os.pipe()
            try:
                members = [SpawnRequest(["/bin/sleep", "30"], stdout=w),
                           SpawnRequest([TRUE, "a\0b"]),
                           SpawnRequest([TRUE])]
                with pytest.raises(SpawnError) as refusal:
                    run_steps(server._unit_steps(members, None, 30.0))
            finally:
                os.close(w)
            assert "EINVAL: spawn member 1" in str(refusal.value)
            with open(r, "rb") as stream:     # EOF: member 0 was killed
                assert stream.read() == b""
            assert server.healthy and helper_fds(server) == before
            assert server.spawn([TRUE]).wait(timeout=30) == 0
