"""Cross-package integration tests.

These exercise seams the unit tests cannot: the POSIX catalog against
the simulator's actual behaviour (spec-conformance), the analyzer
against this repository's own sources (dogfooding), and multi-process
end-to-end scenarios on both the simulated and the real OS.
"""

import os
import textwrap

import pytest

from repro.analysis import lint_paths
from repro.apisurface import CATALOG
from repro.core import Pipeline, ProcessBuilder, SpawnPool
from repro.sim import Kernel, MIB, SimConfig
from repro.sim.signals import SIG_IGN, SIGTERM, SIGUSR1

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_main(kernel, main, argv=()):
    kernel.register_program("/sbin/init", main)
    return kernel.run_program("/sbin/init", argv)


class TestCatalogConformance:
    """Entries the catalog marks as simulated must behave as written."""

    @pytest.fixture
    def kernel(self):
        k = Kernel(SimConfig(total_ram=256 * MIB))
        k.register_program("/bin/true", lambda sys: iter(()))
        return k

    def test_pending_signals_cleared_at_fork(self, kernel):
        # Catalog: "pending signals: CLEARED in the child".
        observed = {}

        def main(sys):
            yield sys.sigprocmask("block", {SIGTERM})
            me = yield sys.getpid()
            yield sys.kill(me, SIGTERM)

            def child(sys2):
                observed["pending"] = yield sys2.sigpending()
                yield sys2.exit(0)

            pid = yield sys.fork(child)
            yield sys.waitpid(pid)
            observed["parent_pending"] = yield sys.sigpending()
            yield sys.exit(0)
        run_main(kernel, main)
        assert observed["pending"] == set()
        assert SIGTERM in observed["parent_pending"]

    def test_ignored_disposition_survives_exec(self, kernel):
        # Catalog: "caught signals RESET ... ignored signals stay".
        observed = {}

        def probe(sys):
            yield sys.getpid()
            yield sys.exit(0)
        kernel.register_program("/bin/probe", probe)

        def main(sys):
            yield sys.sigaction(SIGUSR1, SIG_IGN)
            yield sys.sigaction(SIGTERM, lambda s: None)

            def child(sys2):
                yield sys2.execve("/bin/probe")
            pid = yield sys.fork(child)
            yield sys.waitpid(pid)  # child has exec'd and exited by now
            proc = kernel.find_process(pid)
            observed["ignored"] = proc.signals.get_handler(SIGUSR1)
            observed["caught"] = proc.signals.get_handler(SIGTERM)
            yield sys.exit(0)
        run_main(kernel, main)
        assert observed["ignored"] == SIG_IGN
        assert observed["caught"] == "default"

    def test_map_shared_not_snapshotted_by_fork(self, kernel):
        # Catalog: "MAP_SHARED mappings: NOT snapshotted".
        def main(sys):
            addr = yield sys.mmap(4096, shared=True)

            def child(sys2):
                yield sys2.poke(addr, "written by child")
                yield sys2.exit(0)

            pid = yield sys.fork(child)
            yield sys.waitpid(pid)
            value = yield sys.peek(addr)
            yield sys.exit(0 if value == "written by child" else 1)
        assert run_main(kernel, main) == 0

    def test_descriptors_share_offsets_locks_of_ofd(self, kernel):
        # Catalog: descriptors "refer to the SAME open file description".
        def main(sys):
            kernel.vfs.write_file("/tmp/f", b"abcdef")
            fd = yield sys.open("/tmp/f", "r")

            def child(sys2):
                yield sys2.read(fd, 3)
                yield sys2.exit(0)

            pid = yield sys.fork(child)
            yield sys.waitpid(pid)
            rest = yield sys.read(fd, 3)
            yield sys.exit(0 if rest == b"def" else 1)
        assert run_main(kernel, main) == 0

    def test_every_simulated_entry_is_importable(self):
        import importlib
        for entry in CATALOG:
            if entry.sim_module:
                assert importlib.import_module(entry.sim_module)


class TestDogfoodLint:
    """The analyzer over this repository's own sources.

    The library deliberately contains fork call sites (the fork_exec
    strategy, the atfork bracket, the guarded fork, the measurement
    workloads); the analyzer must find forks ONLY there, and the
    spawn-first modules must be clean.
    """

    INTENTIONAL_FORK_FILES = {
        "strategies.py",   # the measured fork+exec baseline
        "atfork.py",       # fork_with_handlers wraps a real fork
        "safety.py",       # guarded_fork ends in os.fork()
        "workloads.py",    # fig1's fork_exec / fork_only mechanisms
        "helper.py",       # the zygote program: forking is its whole job
    }

    @pytest.fixture(scope="class")
    def report(self):
        return lint_paths([SRC_ROOT])

    def test_fork_findings_only_in_intentional_files(self, report):
        fork_rules = {"F001", "F002", "F003", "F012", "F014"}
        flagged = {os.path.basename(f.path)
                   for f in report.findings if f.rule_id in fork_rules}
        assert flagged <= self.INTENTIONAL_FORK_FILES, flagged

    def test_spawn_modules_are_clean(self, report):
        for module in ("spawn.py", "pipeline.py", "pool.py",
                       "forkserver.py"):
            findings = [f for f in report.findings
                        if os.path.basename(f.path) == module]
            assert findings == [], findings

    def test_no_syntax_errors_anywhere(self, report):
        assert not [f for f in report.findings if f.rule_id == "SYNTAX"]

    def test_scans_the_whole_tree(self, report):
        assert report.files_scanned > 40


class TestSimEndToEnd:
    def test_job_runner_fan_out(self):
        """A make(1)-style runner: spawn N jobs with piped output."""
        kernel = Kernel(SimConfig(total_ram=512 * MIB))

        def job(sys, number):
            yield sys.write(1, f"job {number} done\n".encode())
            yield sys.exit(0)
        kernel.register_program("/bin/job", job)

        def runner(sys):
            read_end, write_end = yield sys.pipe()
            pids = []
            for n in range(5):
                pid = yield sys.spawn(
                    "/bin/job", argv=(n,),
                    file_actions=[("dup2", write_end, 1)])
                pids.append(pid)
            yield sys.close(write_end)
            for pid in pids:
                _, status = yield sys.waitpid(pid)
                if status:
                    yield sys.exit(status)
            output = b""
            while True:
                chunk = yield sys.read(read_end, 4096)
                if not chunk:
                    break
                output += chunk
            lines = sorted(output.decode().strip().splitlines())
            ok = lines == [f"job {n} done" for n in range(5)]
            yield sys.exit(0 if ok else 1)

        kernel.register_program("/sbin/init", runner)
        assert kernel.run_program("/sbin/init") == 0
        assert kernel.allocator.used_frames == 0

    def test_exec_chain(self):
        """init -> exec a -> exec b: one process, three images."""
        kernel = Kernel(SimConfig(total_ram=256 * MIB))
        trail = []

        def program_b(sys):
            trail.append("b")
            pid = yield sys.getpid()
            yield sys.exit(pid)

        def program_a(sys):
            trail.append("a")
            yield sys.execve("/bin/b")

        def init(sys):
            trail.append("init")
            yield sys.execve("/bin/a")

        kernel.register_program("/bin/a", program_a)
        kernel.register_program("/bin/b", program_b)
        kernel.register_program("/sbin/init", init)
        status = kernel.run_program("/sbin/init")
        assert trail == ["init", "a", "b"]
        assert status == 1  # still pid 1 through both execs


class TestRealEndToEnd:
    def test_pipeline_feeding_pool_results(self, tmp_path):
        """Spawn pool computes, pipeline post-processes, no fork."""
        import math
        with SpawnPool(2) as pool:
            roots = pool.map(math.sqrt, [1, 4, 9, 16])
        data = "".join(f"{r:.0f}\n" for r in roots).encode()
        result = Pipeline([["/bin/cat"], ["/usr/bin/wc", "-l"]]).run(
            stdin_data=data)
        assert result.stdout.strip() == b"4"

    def test_builder_into_file_then_shell_reads_it(self, tmp_path):
        target = tmp_path / "artifact"
        child = (ProcessBuilder("/bin/sh", "-c", "echo $MARK")
                 .env_add(MARK="integrated")
                 .stdout_to_file(str(target))
                 .spawn())
        assert child.wait() == 0
        verify = (ProcessBuilder("/bin/grep", "integrated", str(target))
                  .stdout_to_devnull().spawn())
        assert verify.wait() == 0
