"""Regression tests: timers must be reusable inside pool workers.

The sharded core-set solver fans shard solves out to thread and process
pools; its per-shard timing relies on :class:`~repro.obs.trace.Stopwatch`
accumulating correctly under concurrency and carrying no shared mutable
state across process boundaries.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.obs.trace import Stopwatch, timed


def _worker_elapsed(seconds: float) -> float:
    """Process-pool worker: time a sleep with a fresh local stopwatch."""
    watch = Stopwatch()
    with watch.measure():
        time.sleep(seconds)
    return watch.elapsed_seconds


class TestStopwatchThreadSafety:
    def test_concurrent_measures_all_accumulate(self):
        watch = Stopwatch()
        workers, per_worker = 8, 25

        def tick():
            for _ in range(per_worker):
                with watch.measure():
                    pass

        threads = [threading.Thread(target=tick) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every one of the 200 measured intervals must land in the total; the
        # unlocked read-modify-write would lose updates under contention.
        assert watch.elapsed_seconds > 0.0

    def test_add_is_locked_against_measure(self):
        watch = Stopwatch()
        stop = threading.Event()

        def add_loop():
            while not stop.is_set():
                watch.add(0.001)

        thread = threading.Thread(target=add_loop)
        thread.start()
        for _ in range(50):
            with watch.measure():
                pass
        stop.set()
        thread.join()
        assert watch.elapsed_seconds > 0.0

    def test_shared_watch_in_thread_pool(self):
        watch = Stopwatch()

        def task(_):
            with watch.measure():
                time.sleep(0.002)
            return True

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(task, range(8)))
        assert watch.elapsed_seconds >= 8 * 0.002


class TestStopwatchAcrossProcesses:
    def test_pickle_round_trip_is_independent(self):
        watch = Stopwatch()
        watch.add(1.5)
        clone = pickle.loads(pickle.dumps(watch))
        assert clone.elapsed_seconds == 1.5
        # The clone has its own lock and its own accumulator: mutating it
        # must not leak back into the parent (and vice versa).
        clone.add(1.0)
        watch.add(0.25)
        assert clone.elapsed_seconds == 2.5
        assert watch.elapsed_seconds == 1.75
        with clone.measure():
            pass
        clone.reset()
        assert clone.elapsed_seconds == 0.0

    def test_worker_durations_merge_into_parent(self):
        watch = Stopwatch()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for elapsed in pool.map(_worker_elapsed, [0.01, 0.01]):
                watch.add(elapsed)
        assert watch.elapsed_seconds >= 0.02

    def test_merge_combines_stopwatches(self):
        parent, child = Stopwatch(), Stopwatch()
        child.add(0.5)
        parent.add(0.25)
        parent.merge(child)
        assert parent.elapsed_seconds == 0.75
        assert child.elapsed_seconds == 0.5


def test_timed_returns_value_and_duration():
    value, seconds = timed(lambda: 6 * 7)
    assert value == 42
    assert seconds >= 0.0
