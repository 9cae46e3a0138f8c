"""A failed process creation leaves nothing behind.

One row per creation path that can fail after it has started taking
resources.  Each row makes the call fail, checks the error the caller
sees, that what the caller still holds behaves as if the call had never
happened (a pipe reaches EOF once its last writer is closed, a handle
can still be aborted), that the commit charge and the free frames are
back where they were, and
— inside the program, right after the failure, and again once the
machine has run down — that :func:`assert_nothing_leaked` finds no
reference or commitment outliving its process.
"""

from repro.errors import SimOSError
from repro.sim.kernel import Kernel
from repro.sim.params import MIB, SimConfig

from .leaks import assert_nothing_leaked

#: A program whose stack alone is larger than the 512 MiB machine.
BIG = "/bin/big"


def machine(overcommit: str) -> Kernel:
    kernel = Kernel(SimConfig(total_ram=512 * MIB, overcommit=overcommit))
    kernel.register_program("/bin/true", lambda sys: iter(()))
    kernel.register_program(BIG, lambda sys: iter(()),
                            stack_bytes=600 * MIB)
    return kernel


def run(kernel, main) -> dict:
    """Run ``main`` as init; returns what it recorded in ``seen``."""
    seen = {}
    kernel.register_program("/sbin/init", lambda sys: main(sys, seen))
    assert kernel.run_program("/sbin/init") == 0
    assert_nothing_leaked(kernel)
    return seen


def attempt(seen, request):
    """Yield one syscall expected to fail; record its errno and whether
    the commit charge and the free frames came back to what they were
    before the call (``restored``)."""
    kernel = seen["kernel"]

    def holdings():
        return kernel.commit.committed_pages, kernel.allocator.free_frames
    before = holdings()
    try:
        yield request
    except SimOSError as err:
        seen["errno"] = err.errno_name
    else:
        seen["errno"] = None
    seen["restored"] = holdings() == before
    assert_nothing_leaked(kernel, embryos=seen.get("embryos", 0))


def test_a_spawn_whose_file_action_fails_drops_its_descriptors():
    kernel = machine("heuristic")

    def main(sys, seen):
        seen["kernel"] = kernel
        r, w = yield sys.pipe()
        yield from attempt(seen, sys.spawn(
            "/bin/true", file_actions=[("dup2", w, 1), ("dup2", 99, 1)]))
        yield sys.close(w)
        seen["read"] = yield sys.read(r, 100)
        yield sys.exit(0)
    seen = run(kernel, main)
    assert seen["errno"] == "EBADF"
    assert seen["read"] == b""  # the failed child held no write end
    assert seen["restored"]


def test_b_an_image_that_does_not_fit_returns_its_commit():
    kernel = machine("never")

    def main(sys, seen):
        seen["kernel"] = kernel
        yield from attempt(seen, sys.spawn(BIG))
        seen["spawn"] = seen["errno"], seen["restored"]
        yield from attempt(seen, sys.execve(BIG))
        seen["execve"] = seen["errno"], seen["restored"]
        yield sys.exit(0)
    seen = run(kernel, main)
    assert seen["spawn"] == ("ENOMEM", True)
    assert seen["execve"] == ("ENOMEM", True)


def test_c_a_failed_xproc_start_leaves_the_handle_valid():
    kernel = machine("never")

    def main(sys, seen):
        seen["kernel"] = kernel
        r, w = yield sys.pipe()
        handle = yield sys.xproc_create()
        yield sys.xproc_grant_fd(handle, w, 1)
        seen["embryos"] = 1
        yield from attempt(seen, sys.xproc_start(handle, BIG))
        seen["abort"] = yield sys.xproc_abort(handle)
        seen["embryos"] = 0
        yield sys.close(w)
        seen["read"] = yield sys.read(r, 100)
        yield sys.exit(0)
    seen = run(kernel, main)
    assert seen["errno"] == "ENOMEM"
    assert seen["restored"]
    assert seen["abort"] == 0
    assert seen["read"] == b""


def test_d_an_emulated_fork_that_runs_out_of_memory_returns_it():
    kernel = machine("heuristic")

    def main(sys, seen):
        seen["kernel"] = kernel
        addr = yield sys.mmap(300 * MIB)
        yield sys.populate(addr, 300 * MIB)
        yield from attempt(seen, sys.fork_emulated(lambda s: iter(())))
        yield sys.exit(0)
    seen = run(kernel, main)
    assert seen["errno"] == "ENOMEM"
    assert seen["restored"]


def test_e_an_eager_fork_that_runs_out_of_frames_returns_them():
    """Fork without copy-on-write (the A1 ablation) charges its commit
    up front and copies VMA by VMA, so it can run out of frames part-way
    through the parent."""
    kernel = Kernel(SimConfig(total_ram=64 * MIB, cow_enabled=False,
                              overcommit="always"))

    def main(sys, seen):
        seen["kernel"] = kernel
        for _ in range(3):
            addr = yield sys.mmap(12 * MIB)
            yield sys.populate(addr, 12 * MIB)
        yield from attempt(seen, sys.fork(lambda s: iter(())))
        yield sys.exit(0)
    seen = run(kernel, main)
    assert seen["errno"] == "ENOMEM"
    assert seen["restored"]
