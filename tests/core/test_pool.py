"""Tests for the spawn-based process pool."""

import math
import operator
import os
import pickle
import signal

import pytest

from repro.core import pool as pool_module
from repro.core.pool import SpawnPool, callable_spec
from repro.errors import SpawnError


@pytest.fixture(scope="module")
def pool():
    with SpawnPool(3) as p:
        yield p


class TestCallableSpec:
    def test_module_function(self):
        assert callable_spec(math.sqrt) == "math:sqrt"

    def test_nested_qualname(self):
        import json
        assert (callable_spec(json.JSONEncoder.encode)
                == "json.encoder:JSONEncoder.encode")

    def test_lambda_rejected(self):
        with pytest.raises(SpawnError):
            callable_spec(lambda x: x)

    def test_local_function_rejected(self):
        def local():
            pass
        with pytest.raises(SpawnError):
            callable_spec(local)


class TestSubmit:
    def test_single_call(self, pool):
        assert pool.submit(math.sqrt, 49) == 7.0

    def test_kwargs_pass_through(self, pool):
        assert pool.submit(int, "ff", base=16) == 255

    def test_operator_module(self, pool):
        assert pool.submit(operator.add, 2, 3) == 5

    def test_worker_exception_surfaces(self, pool):
        with pytest.raises(SpawnError) as exc:
            pool.submit(math.sqrt, -1)
        assert "math domain error" in str(exc.value)

    def test_worker_survives_task_failure(self, pool):
        with pytest.raises(SpawnError):
            pool.submit(math.sqrt, -1)
        assert pool.submit(math.sqrt, 16) == 4.0

    def test_workers_are_distinct_real_processes(self, pool):
        pids = set(pool.worker_pids())
        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_tasks_run_in_worker_not_parent(self, pool):
        worker_pid = pool.submit(os.getpid)
        assert worker_pid in pool.worker_pids()


class TestMap:
    def test_results_in_input_order(self, pool):
        assert pool.map(math.sqrt, [1, 4, 9, 16, 25]) == [1, 2, 3, 4, 5]

    def test_batch_spans_workers(self, pool):
        # 3 workers x 3 batches: pids show more than one worker served.
        pids = pool.map(_identity_pid, range(9))
        assert len(set(pids)) == 3

    def test_empty_map(self, pool):
        assert pool.map(math.sqrt, []) == []

    def test_map_error_propagates(self, pool):
        with pytest.raises(SpawnError):
            pool.map(math.sqrt, [1, -1, 4])


def _identity_pid(_item):
    import os
    return os.getpid()


class TestLifecycle:
    def test_close_is_idempotent(self):
        pool = SpawnPool(1)
        pool.close()
        pool.close()

    def test_closed_pool_rejects_work(self):
        pool = SpawnPool(1)
        pool.close()
        with pytest.raises(SpawnError):
            pool.submit(math.sqrt, 4)

    def test_zero_workers_rejected(self):
        with pytest.raises(SpawnError):
            SpawnPool(0)

    def test_context_manager_reaps_workers(self):
        with SpawnPool(2) as pool:
            pids = list(pool.worker_pids())
            workers = list(pool._workers)
        for worker in workers:
            assert worker.child.finished
        del pids

    def test_close_kills_a_wedged_worker_and_still_closes_the_rest(
            self, monkeypatch):
        monkeypatch.setattr(pool_module, "_CLOSE_GRACE", 0.2)
        pool = SpawnPool(2)
        wedged, idle = pool._workers
        request = pickle.dumps(("time:sleep", (60,), {}))
        os.write(wedged.stdin_fd, pool_module._LEN.pack(len(request))
                 + request)  # in a task: deaf to EOF on its stdin
        pool.close()
        assert wedged.child.returncode == -signal.SIGKILL
        assert idle.child.returncode == 0
        assert idle.stdin_fd is None and idle.stdout_fd is None

    def test_dead_worker_is_replaced_and_the_error_raised(self):
        with SpawnPool(1) as pool:
            (pid,) = pool.worker_pids()
            with pytest.raises(SpawnError, match="died mid-reply"):
                pool.submit(os.kill, pid, signal.SIGKILL)
            assert pool.respawns == 1 and pool.worker_pids() != [pid]
            assert pool.submit(math.sqrt, 4) == 2.0
