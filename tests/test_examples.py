"""Smoke tests: every shipped example runs clean, end to end.

Examples are documentation that compiles; these tests keep them that
way.  Each runs in a subprocess (spawned, naturally) with a timeout,
and key output lines are asserted so a silently-broken demo fails loud.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")


def run_example(name: str, *args, timeout: float = 120.0):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "hello from posix_spawn" in out
        assert "SHOUTING NOW" in out
        assert "fork-safety audit" in out

    def test_simulator_tour(self):
        out = run_example("simulator_tour.py")
        assert "HELLO, SIMULATED UNIX" in out
        assert "0 pages copied at fork" in out
        assert "deadlock detector fired" in out
        assert "no deadlock possible" in out

    def test_lint_fork_hazards(self):
        out = run_example("lint_fork_hazards.py")
        assert "F001" in out
        assert "0 error(s), 0 warning(s)" in out  # the rewrite is clean

    def test_mini_shell_script_mode(self):
        out = run_example("mini_shell.py")
        assert "hello world" in out
        assert "[exit 3]" in out
        assert "shell without fork" in out

    def test_snapshot_server(self):
        out = run_example("snapshot_server.py")
        assert "snapshot child saw every pre-fork value: True" in out
        assert "COW copies nothing" in out

    def test_trace_processes(self):
        out = run_example("trace_processes.py")
        assert "build exited 0" in out
        assert "Chrome trace written" in out

    @pytest.mark.slow
    def test_zygote_pool(self):
        out = run_example("zygote_pool.py", timeout=300.0)
        assert "vs fork+exec" in out
        assert "template lease (parked)" in out
