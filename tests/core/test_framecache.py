"""Frame cache correctness: content keys, fd bypass, bounded LRU."""

import json
import os
import threading

import pytest

from repro.core import ForkServer
from repro.core.framecache import FrameCache, frame_key
from repro.errors import SpawnError


class TestFrameKey:
    def test_same_shape_same_key(self):
        assert frame_key(["/bin/true"], {"A": "1"}, "/tmp") == \
            frame_key(["/bin/true"], {"A": "1"}, "/tmp")

    def test_env_order_does_not_matter(self):
        assert frame_key(["x"], {"A": "1", "B": "2"}, None) == \
            frame_key(["x"], {"B": "2", "A": "1"}, None)

    def test_no_env_differs_from_empty_env(self):
        # env=None means "inherit"; env={} means "empty" — different
        # wire payloads, so they must never share a cached frame.
        assert frame_key(["x"], None, None) != frame_key(["x"], {}, None)

    def test_any_field_changes_the_key(self):
        base = frame_key(["x", "y"], {"A": "1"}, "/tmp")
        assert frame_key(["x", "z"], {"A": "1"}, "/tmp") != base
        assert frame_key(["x", "y"], {"A": "2"}, "/tmp") != base
        assert frame_key(["x", "y"], {"A": "1"}, "/var") != base


class TestFrameCacheLru:
    def test_hit_miss_counters(self):
        cache = FrameCache(4)
        key = frame_key(["x"], None, None)
        assert cache.lookup(key) is None
        cache.store(key, b"tail")
        assert cache.lookup(key) == b"tail"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_bounds_memory(self):
        cache = FrameCache(3)
        keys = [frame_key([f"argv{i}"], None, None) for i in range(10)]
        for key in keys:
            cache.store(key, b"tail")
        assert len(cache) == 3
        assert cache.evictions == 7
        # The survivors are the most recently stored.
        assert cache.lookup(keys[-1]) == b"tail"
        assert cache.lookup(keys[0]) is None

    def test_lookup_refreshes_recency(self):
        cache = FrameCache(2)
        a, b, c = (frame_key([name], None, None) for name in "abc")
        cache.store(a, b"a")
        cache.store(b, b"b")
        assert cache.lookup(a) == b"a"  # a is now most recent
        cache.store(c, b"c")            # evicts b, not a
        assert cache.lookup(a) == b"a"
        assert cache.lookup(b) is None

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(SpawnError):
            FrameCache(0)


class TestForkServerIntegration:
    def test_repeated_shape_hits(self):
        with ForkServer() as server:
            for _ in range(3):
                assert server.spawn(["/bin/true"]).wait(timeout=10) == 0
            assert server.frame_cache.misses == 1
            assert server.frame_cache.hits == 2

    def test_mutated_argv_misses_and_runs_the_new_argv(self):
        # The key is content-based: mutating the SAME list object after
        # a cached spawn must produce a fresh frame, never a stale one.
        with ForkServer() as server:
            argv = ["/bin/echo", "first"]
            r1, w1 = os.pipe()
            child = server.spawn(argv, stdout=w1)
            os.close(w1)
            assert child.wait(timeout=10) == 0
            os.close(r1)
            argv[1] = "second"
            r2, w2 = os.pipe()
            child = server.spawn(argv, stdout=w2)
            os.close(w2)
            assert child.wait(timeout=10) == 0
            with open(r2, "rb") as out:
                assert out.read() == b"second\n"

    def test_mutated_env_misses(self):
        with ForkServer() as server:
            env = {"MARKER": "1", "PATH": os.environ.get("PATH", "")}
            server.spawn(["/bin/true"], env=env).wait(timeout=10)
            misses = server.frame_cache.misses
            env["MARKER"] = "2"
            server.spawn(["/bin/true"], env=env).wait(timeout=10)
            assert server.frame_cache.misses == misses + 1

    def test_fd_bearing_requests_never_cached(self):
        with ForkServer() as server:
            read_fd, write_fd = os.pipe()
            try:
                child = server.spawn(["/bin/echo", "hi"], stdout=write_fd)
                assert child.wait(timeout=10) == 0
            finally:
                os.close(write_fd)
                os.close(read_fd)
            assert len(server.frame_cache) == 0

    def test_cache_disabled(self):
        with ForkServer(frame_cache=0) as server:
            assert server.frame_cache is None
            assert server.spawn(["/bin/true"]).wait(timeout=10) == 0


class TestConcurrency:
    """Hammer the LRU from many threads: counters stay exact, no bleed."""

    THREADS = 8
    KEYS_PER_THREAD = 50

    @staticmethod
    def _run_threads(worker, count):
        failures = []

        def guarded(index):
            try:
                worker(index)
            except BaseException as exc:  # surfaced in the main thread
                failures.append(exc)

        threads = [threading.Thread(target=guarded, args=(index,))
                   for index in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures

    def test_no_lost_entries_without_eviction_pressure(self):
        cache = FrameCache(self.THREADS * self.KEYS_PER_THREAD)

        def worker(index):
            for j in range(self.KEYS_PER_THREAD):
                key = frame_key([f"cmd-{index}-{j}"], None, None)
                cache.store(key, f"tail-{index}-{j}".encode())

        self._run_threads(worker, self.THREADS)
        assert cache.evictions == 0
        assert len(cache) == self.THREADS * self.KEYS_PER_THREAD
        for index in range(self.THREADS):
            for j in range(self.KEYS_PER_THREAD):
                key = frame_key([f"cmd-{index}-{j}"], None, None)
                assert cache.lookup(key) == f"tail-{index}-{j}".encode()

    def test_entry_accounting_exact_under_eviction_churn(self):
        # Every store inserts a distinct key; every eviction removes
        # exactly one entry — so stores == final size + evictions even
        # with all threads churning a tiny cache at once.
        cache = FrameCache(4)

        def worker(index):
            for j in range(self.KEYS_PER_THREAD):
                key = frame_key([f"cmd-{index}-{j}"], None, None)
                cache.store(key, b"tail")

        self._run_threads(worker, self.THREADS)
        stores = self.THREADS * self.KEYS_PER_THREAD
        assert len(cache) <= 4
        assert len(cache) + cache.evictions == stores

    def test_hit_miss_counters_exact_under_contention(self):
        cache = FrameCache(self.THREADS * 2)
        lookups_per_thread = 3 * self.KEYS_PER_THREAD

        def worker(index):
            key = frame_key([f"cmd-{index}"], None, None)
            for j in range(lookups_per_thread):
                if cache.lookup(key) is None:
                    cache.store(key, b"tail")

        self._run_threads(worker, self.THREADS)
        total = self.THREADS * lookups_per_thread
        assert cache.hits + cache.misses == total
        # Each thread owns a distinct key, so exactly its first lookup
        # misses; everything after is a hit on its own entry.
        assert cache.misses == self.THREADS
        assert cache.hits == total - self.THREADS

    def test_splice_path_never_bleeds_ids_or_traces(self):
        # The cached tail is shared across callers; the spliced prefix
        # (correlation id + trace id) is per call.  Encode from many
        # threads against one tiny cache and verify every frame carries
        # ITS OWN id, trace and payload — no cross-request bleed.
        server = ForkServer(frame_cache=2)  # never started: encoder only
        frames = []
        lock = threading.Lock()

        def worker(index):
            for j in range(self.KEYS_PER_THREAD):
                request = {"op": "spawn", "reqs": [
                    {"argv": [f"/bin/worker-{index}"],
                     "env": {"SLOT": str(index)}, "cwd": None, "nfds": 3}]}
                rid = index * self.KEYS_PER_THREAD + j
                encode = server._frame_encoder(request, f"trace-{index}")
                with lock:
                    frames.append((index, rid, encode(request, rid)))

        self._run_threads(worker, self.THREADS)
        for index, rid, frame in frames:
            decoded = json.loads(frame)
            assert decoded["id"] == rid
            assert decoded["trace"] == f"trace-{index}"
            (member,) = decoded["reqs"]
            assert member["argv"] == [f"/bin/worker-{index}"]
            assert member["env"] == {"SLOT": str(index)}
