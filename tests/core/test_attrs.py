"""Unit tests for spawn attributes."""

import os
import signal

import pytest

from repro.core.attrs import SpawnAttributes, _catchable_signals
from repro.errors import SpawnError


class TestValidation:
    def test_defaults_validate(self):
        SpawnAttributes().validate()

    def test_non_string_env_rejected(self):
        with pytest.raises(SpawnError):
            SpawnAttributes(env={"KEY": 42}).validate()

    def test_equals_in_env_name_rejected(self):
        with pytest.raises(SpawnError):
            SpawnAttributes(env={"BAD=NAME": "v"}).validate()

    @pytest.mark.parametrize("env", [
        {"": "v"}, {"A\0B": "v"}, {"A": "v\0w"}],
        ids=["empty-name", "nul-in-name", "nul-in-value"])
    def test_entries_no_exec_could_take_are_rejected(self, env):
        with pytest.raises(SpawnError):
            SpawnAttributes(env=env).validate()
        SpawnAttributes(env={"A": "", "B": "=v="}).validate()

    def test_bad_umask_rejected(self):
        with pytest.raises(SpawnError):
            SpawnAttributes(umask=0o10000).validate()

    def test_bad_signal_number_rejected(self):
        with pytest.raises(SpawnError):
            SpawnAttributes(sigmask=[0]).validate()
        with pytest.raises(SpawnError):
            SpawnAttributes(sigmask=[signal.NSIG + 5]).validate()

    def test_valid_sigmask_accepted(self):
        SpawnAttributes(sigmask=[signal.SIGUSR1]).validate()


class TestEnvironment:
    def test_none_inherits_parent(self, monkeypatch):
        monkeypatch.setenv("INHERIT_ME", "yes")
        assert SpawnAttributes().effective_env()["INHERIT_ME"] == "yes"

    def test_explicit_env_replaces(self, monkeypatch):
        monkeypatch.setenv("INHERIT_ME", "yes")
        env = SpawnAttributes(env={"ONLY": "this"}).effective_env()
        assert env == {"ONLY": "this"}

    def test_effective_env_is_a_copy(self):
        attrs = SpawnAttributes(env={"A": "1"})
        attrs.effective_env()["A"] = "mutated"
        assert attrs.env["A"] == "1"


class TestPosixSpawnRendering:
    def test_defaults_render_empty(self):
        assert SpawnAttributes().posix_spawn_kwargs() == {}

    def test_process_group_renders(self):
        kwargs = SpawnAttributes(new_process_group=True).posix_spawn_kwargs()
        assert kwargs["setpgroup"] == 0

    def test_reset_signals_renders_sigdef(self):
        kwargs = SpawnAttributes(reset_signals=True).posix_spawn_kwargs()
        assert signal.SIGTERM in kwargs["setsigdef"]
        assert signal.SIGKILL not in kwargs["setsigdef"]

    def test_sigmask_renders(self):
        kwargs = SpawnAttributes(
            sigmask=[signal.SIGUSR1]).posix_spawn_kwargs()
        assert kwargs["setsigmask"] == [signal.SIGUSR1]

    def test_catchable_excludes_kill_stop(self):
        catchable = _catchable_signals()
        assert signal.SIGKILL not in catchable
        assert signal.SIGSTOP not in catchable
        assert signal.SIGINT in catchable


class TestApplyInChild:
    def test_umask_and_cwd_apply(self, tmp_path):
        # Exercise apply_in_child in a real forked child.
        attrs = SpawnAttributes(cwd=str(tmp_path), umask=0o077)
        pid = os.fork()
        if pid == 0:
            try:
                attrs.apply_in_child()
                ok = (os.getcwd() == str(tmp_path)
                      and os.umask(0o022) == 0o077)
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(127)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0

    def test_process_group_applies(self):
        attrs = SpawnAttributes(new_process_group=True)
        pid = os.fork()
        if pid == 0:
            try:
                attrs.apply_in_child()
                os._exit(0 if os.getpgrp() == os.getpid() else 1)
            except BaseException:
                os._exit(127)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
