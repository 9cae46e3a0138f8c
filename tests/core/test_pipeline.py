"""Tests for fork-free pipelines."""

import os

import pytest

from repro.core import Pipeline
from repro.errors import ExecError, SpawnError

SH = "/bin/sh"


class TestPipelines:
    def test_single_stage(self):
        result = Pipeline([["/bin/echo", "solo"]]).run()
        assert result.ok
        assert result.stdout == b"solo\n"

    def test_two_stages(self):
        result = Pipeline([["/bin/echo", "a\nb\nc"],
                           ["/usr/bin/wc", "-l"]]).run()
        assert result.stdout.strip() == b"3"

    def test_three_stages(self):
        result = Pipeline([
            ["/bin/echo", "apple\nbanana\ncherry\navocado"],
            ["/bin/grep", "a"],
            ["/usr/bin/wc", "-l"],
        ]).run()
        assert result.stdout.strip() == b"3"  # apple, banana, avocado
        assert result.returncodes == [0, 0, 0]

    def test_eof_propagates_through_every_stage(self):
        # The regression this module exists to prevent: a leaked write
        # end anywhere and `wc` never sees EOF (this test would hang).
        result = Pipeline([["/bin/echo", "x"],
                           ["/bin/cat"],
                           ["/bin/cat"],
                           ["/usr/bin/wc", "-c"]]).run()
        assert result.stdout.strip() == b"2"

    def test_stdin_data_feeds_first_stage(self):
        result = Pipeline([["/bin/cat"], ["/usr/bin/wc", "-c"]]).run(
            stdin_data=b"12345")
        assert result.stdout.strip() == b"5"

    def test_failure_is_visible_per_stage(self):
        result = Pipeline([[SH, "-c", "echo hi; exit 3"],
                           ["/bin/cat"]]).run()
        assert result.returncodes == [3, 0]
        assert not result.ok
        assert result.stdout == b"hi\n"

    def test_forced_fork_exec_strategy(self):
        result = Pipeline([["/bin/echo", "via fork"],
                           ["/bin/cat"]]).run(strategy="fork_exec")
        assert result.stdout == b"via fork\n"
        assert result.ok

    def test_a_stage_that_cannot_launch_leaves_nothing_behind(self):
        """The stages already launched are killed and reaped, and every
        pipe end — the one feeding ``stdin_data`` too — is closed."""
        def children():
            pids = set()
            for task in os.listdir("/proc/self/task"):
                with open(f"/proc/self/task/{task}/children") as listing:
                    pids.update(listing.read().split())
            return pids

        before, fds = children(), set(os.listdir("/proc/self/fd"))
        with pytest.raises(ExecError):
            Pipeline([["/bin/sleep", "30"], ["/no/such/binary"]]).run(
                stdin_data=b"x", strategy="posix_spawn")
        assert children() == before
        assert set(os.listdir("/proc/self/fd")) == fds

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SpawnError):
            Pipeline([])

    def test_empty_stage_rejected(self):
        with pytest.raises(SpawnError):
            Pipeline([["/bin/echo"], []])

    def test_larger_fanout(self):
        stages = [["/bin/echo", "\n".join(f"line{i}" for i in range(50))]]
        stages += [["/bin/cat"]] * 5
        stages += [["/usr/bin/wc", "-l"]]
        result = Pipeline(stages).run()
        assert result.stdout.strip() == b"50"
        assert result.ok
