"""Fault-injection wrappers for exercising the stack's recovery paths.

The fault-tolerance machinery — shard-worker recovery, deadlines, numerical
degradation — only earns its keep if the failure modes it defends against can
be *reproduced on demand*.  This module provides picklable wrappers that
inject faults into the two oracles every solve is built on:

* :class:`CrashingMetric` / :class:`CrashingSetFunction` — raise a
  ``RuntimeError`` on oracle calls (a bounded number of times, so retry
  paths can be observed succeeding);
* :class:`SlowMetric` — sleep on first use, long enough to trip per-shard
  timeouts but always *finite*, so abandoned workers still wind down and the
  interpreter can exit;
* :class:`NaNMetric` / :class:`NaNSetFunction` — poison query results with
  NaN *after* construction-time validation has passed, the way a corrupted
  cache or a buggy user oracle would;
* :class:`WorkerKillingMetric` — ``SIGKILL`` the current process on first
  oracle call, which from a :class:`~concurrent.futures.ProcessPoolExecutor`
  parent's point of view is a ``BrokenProcessPool``.

Every wrapper supports ``only_in_workers=True``: the constructing (parent)
process pid is recorded, and the fault fires only when the wrapper finds
itself executing in a *different* process — i.e. inside a process-pool
worker.  That makes worker-crash scenarios picklable and, crucially, lets
the sharded solver's serial in-process fallback succeed on the very same
objects that just killed the pool.

Wrappers propagate themselves through the restriction hooks
(``_restrict_lazy``, ``_restrict``), so a fault planted on a corpus metric
survives the sharding pipeline's sub-metric construction into the workers.

The durability layer gets its own crash-injection helpers, operating on the
*files* a :class:`~repro.durability.recovery.DurableStore` writes rather
than on oracles:

* :func:`tear_wal_tail` — drop the last bytes of a write-ahead log, the
  shape of a crash mid-append (torn final record → repaired on recovery);
* :func:`flip_byte` — corrupt one byte in place, the shape of bit rot or a
  misdirected write (mid-log damage → ``WalCorruptionError``);
* :class:`SimulatedCrash` / :func:`crash_after_snapshot` — abort compaction
  in the window *between* writing the new snapshot and truncating the log,
  the classic double-state crash recovery must treat idempotently.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Iterable, Optional

import numpy as np

from repro._types import Element
from repro.functions.base import Candidates, GainState, SetFunction
from repro.metrics.base import Metric

__all__ = [
    "FaultyMetric",
    "CrashingMetric",
    "SlowMetric",
    "NaNMetric",
    "WorkerKillingMetric",
    "FaultySetFunction",
    "CrashingSetFunction",
    "NaNSetFunction",
    "SimulatedCrash",
    "crash_after_snapshot",
    "flip_byte",
    "kill_current_process",
    "tear_wal_tail",
]


def kill_current_process() -> None:  # pragma: no cover - kills the process
    """Terminate the current process immediately with ``SIGKILL``.

    No Python-level cleanup runs — from the parent pool's perspective this is
    indistinguishable from an OOM kill or a segfault, which is exactly the
    condition :mod:`repro.core.sharding` must survive as ``BrokenProcessPool``.
    """
    os.kill(os.getpid(), signal.SIGKILL)


class _FaultSwitch:
    """Shared arming logic: process scoping plus a bounded fire budget."""

    __slots__ = ("parent_pid", "remaining")

    def __init__(self, only_in_workers: bool, fail_times: Optional[int]) -> None:
        self.parent_pid = os.getpid() if only_in_workers else None
        self.remaining = fail_times

    def should_fire(self) -> bool:
        if self.parent_pid is not None and os.getpid() == self.parent_pid:
            return False
        if self.remaining is not None:
            if self.remaining <= 0:
                return False
            self.remaining -= 1
        return True


class FaultyMetric(Metric):
    """Delegating metric wrapper; subclasses override :meth:`_fault`.

    Every oracle entry point (``distance``, ``distances_from``, ``row``,
    ``block``, ``to_matrix``) calls :meth:`_fault` before delegating to the
    wrapped metric.  Restrictions re-wrap their sub-metric in the same fault
    class sharing this wrapper's :class:`_FaultSwitch`, so the fault budget
    is global across the restriction tree within one process.
    """

    def __init__(
        self,
        inner: Metric,
        *,
        only_in_workers: bool = False,
        fail_times: Optional[int] = None,
    ) -> None:
        self._inner = inner
        self._switch = _FaultSwitch(only_in_workers, fail_times)

    # -- fault hook -----------------------------------------------------
    def _fault(self) -> None:
        """Called before every delegated oracle query."""

    def _rewrap(self, inner: Metric) -> "FaultyMetric":
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._inner = inner
        clone._switch = self._switch
        return clone

    # -- Metric interface ------------------------------------------------
    @property
    def n(self) -> int:
        return self._inner.n

    def distance(self, u: Element, v: Element) -> float:
        self._fault()
        return self._inner.distance(u, v)

    def distances_from(self, u: Element, targets: Iterable[Element]) -> np.ndarray:
        self._fault()
        return self._inner.distances_from(u, targets)

    def row(self, u: Element) -> np.ndarray:
        self._fault()
        return self._inner.row(u)

    def block(self, rows: Iterable[Element], cols: Iterable[Element]) -> np.ndarray:
        self._fault()
        return self._inner.block(rows, cols)

    def to_matrix(self) -> np.ndarray:
        self._fault()
        return self._inner.to_matrix()

    def matrix_view(self) -> Optional[np.ndarray]:
        # Deliberately opaque: exposing the inner view would let the kernel
        # layer bypass the fault hooks entirely.
        return None

    def _restrict_lazy(self, pool: np.ndarray) -> Optional[Metric]:
        lazy = self._inner._restrict_lazy(pool)
        if lazy is None:
            return None
        return self._rewrap(lazy)

    def _restrict(self, pool: np.ndarray) -> Metric:
        return self._rewrap(self._inner._restrict(pool))

    @property
    def parallel_safe(self) -> bool:
        return self._inner.parallel_safe


class CrashingMetric(FaultyMetric):
    """Raise ``RuntimeError`` on oracle calls.

    ``fail_times`` bounds how often (``None`` = every call): with
    ``fail_times=1`` the first query of a shard solve crashes it and the
    retry succeeds, which is exactly the shape the bounded-retry path needs.
    """

    def _fault(self) -> None:
        if self._switch.should_fire():
            raise RuntimeError("injected metric fault")


class SlowMetric(FaultyMetric):
    """Sleep ``delay_s`` once per process on first oracle use.

    Sleeping once (rather than per call) keeps the injected slowness O(1):
    long enough to overrun a per-shard timeout, short enough that the
    abandoned worker finishes its nap and the interpreter can exit cleanly —
    a *hung-forever* worker would block test-process teardown.
    """

    def __init__(
        self,
        inner: Metric,
        delay_s: float,
        *,
        only_in_workers: bool = True,
        fail_times: Optional[int] = 1,
    ) -> None:
        super().__init__(inner, only_in_workers=only_in_workers, fail_times=fail_times)
        self._delay_s = float(delay_s)

    def _fault(self) -> None:
        if self._switch.should_fire():
            time.sleep(self._delay_s)


class NaNMetric(FaultyMetric):
    """Poison query results with NaN after construction-time checks passed.

    Every delegated result is overwritten with NaN while the switch fires —
    the post-validation corruption (a bad cache read, a buggy oracle) the
    finiteness gates at construction *cannot* catch, exercising the runtime
    NaN guards instead.
    """

    def distance(self, u: Element, v: Element) -> float:
        if self._switch.should_fire():
            return float("nan")
        return self._inner.distance(u, v)

    def distances_from(self, u: Element, targets: Iterable[Element]) -> np.ndarray:
        out = self._inner.distances_from(u, targets)
        if self._switch.should_fire():
            out = np.full_like(out, np.nan)
        return out

    def row(self, u: Element) -> np.ndarray:
        out = np.array(self._inner.row(u), copy=True)
        if self._switch.should_fire():
            out[:] = np.nan
        return out

    def block(self, rows: Iterable[Element], cols: Iterable[Element]) -> np.ndarray:
        out = self._inner.block(rows, cols)
        if self._switch.should_fire():
            out = np.full_like(out, np.nan)
        return out


class WorkerKillingMetric(FaultyMetric):
    """``SIGKILL`` the current process on first oracle call.

    With the default ``only_in_workers=True`` the kill only triggers inside a
    process-pool worker (the parent records its pid at construction), which
    surfaces in the parent as ``BrokenProcessPool`` — and the serial fallback
    then runs the very same metric safely in-process.
    """

    def __init__(
        self,
        inner: Metric,
        *,
        only_in_workers: bool = True,
        fail_times: Optional[int] = None,
    ) -> None:
        super().__init__(inner, only_in_workers=only_in_workers, fail_times=fail_times)

    def _fault(self) -> None:
        if self._switch.should_fire():  # pragma: no cover - kills the worker
            kill_current_process()


class FaultySetFunction(SetFunction):
    """Delegating set-function wrapper; subclasses override :meth:`_fault`."""

    def __init__(
        self,
        inner: SetFunction,
        *,
        only_in_workers: bool = False,
        fail_times: Optional[int] = None,
    ) -> None:
        self._inner = inner
        self._switch = _FaultSwitch(only_in_workers, fail_times)

    def _fault(self) -> None:
        """Called before every delegated oracle query."""

    @property
    def n(self) -> int:
        return self._inner.n

    def value(self, subset: Iterable[Element]) -> float:
        self._fault()
        return self._inner.value(subset)

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        self._fault()
        return self._inner.marginal(element, subset)

    def gain_state(self, subset: Iterable[Element] = ()) -> GainState:
        return self._inner.gain_state(subset)

    def gains(self, candidates: Candidates, state: GainState) -> np.ndarray:
        self._fault()
        return self._inner.gains(candidates, state)

    def push(self, state: GainState, element: Element) -> GainState:
        return self._inner.push(state, element)

    @property
    def is_modular(self) -> bool:
        # Declare non-modular even for modular inner functions so solves use
        # the oracle/gains paths (where the fault hooks live) instead of
        # lifting a weight vector once and never calling the oracle again.
        return False

    @property
    def declares_submodular(self) -> bool:
        return self._inner.declares_submodular

    @property
    def declares_monotone(self) -> bool:
        return self._inner.declares_monotone

    @property
    def parallel_safe(self) -> bool:
        return self._inner.parallel_safe


class CrashingSetFunction(FaultySetFunction):
    """Raise ``RuntimeError`` on value/marginal/gains calls (see switch)."""

    def _fault(self) -> None:
        if self._switch.should_fire():
            raise RuntimeError("injected set-function fault")


class NaNSetFunction(FaultySetFunction):
    """Poison value/marginal/gains results with NaN while the switch fires."""

    def value(self, subset: Iterable[Element]) -> float:
        if self._switch.should_fire():
            return float("nan")
        return self._inner.value(subset)

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        if self._switch.should_fire():
            return float("nan")
        return self._inner.marginal(element, subset)

    def gains(self, candidates: Candidates, state: GainState) -> np.ndarray:
        out = self._inner.gains(candidates, state)
        if self._switch.should_fire():
            out = np.full_like(out, np.nan)
        return out


# ----------------------------------------------------------------------
# Durability crash injection
# ----------------------------------------------------------------------
class SimulatedCrash(BaseException):
    """Raised by :func:`crash_after_snapshot` to abort a compaction mid-way.

    Deliberately a ``BaseException``: the injected crash must not be
    swallowed by ordinary ``except Exception`` recovery code on its way out —
    a real ``SIGKILL`` would not be.
    """


def tear_wal_tail(path: str, nbytes: int = 1) -> int:
    """Truncate the last ``nbytes`` bytes off a file, as a crash mid-write would.

    The canonical torn-tail fault: an append that made it only partially to
    disk before power loss.  Recovery must repair this (drop the final
    record with a :class:`~repro.exceptions.DurabilityWarning`), never fail
    on it.  Returns the new file size.
    """
    size = os.path.getsize(path)
    new_size = max(0, size - int(nbytes))
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size


def flip_byte(path: str, offset: int) -> None:
    """XOR-flip one byte of a file in place (negative offsets count from EOF).

    The shape of bit rot or a misdirected write: the file length is intact
    but one payload byte lies.  Mid-log, this must surface as
    :class:`~repro.exceptions.WalCorruptionError` — it cannot be explained
    as a torn append, so silently dropping data behind it would lose
    acknowledged writes.
    """
    size = os.path.getsize(path)
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} outside file of {size} bytes")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def crash_after_snapshot(store: "DurableStore") -> None:
    """Arm ``store`` to raise :class:`SimulatedCrash` during its next compaction.

    The crash fires *after* the compaction checkpoint has landed on disk but
    *before* the journal truncates — the double-state window where both a
    fresh snapshot and the full log exist.  Recovery must prefer the
    snapshot and skip the already-compacted journal prefix; replaying it
    would double-apply every tick.  The hook disarms itself after firing.
    """

    def hook() -> None:
        store.post_snapshot_hook = None
        raise SimulatedCrash("injected crash between snapshot and log truncation")

    store.post_snapshot_hook = hook
