"""Atomic, checksummed snapshot files with monotonic generation rotation.

A snapshot write never leaves a half-written file where a reader can find
it: the payload goes to a temp file in the same directory, is flushed and
fsynced, then moved into place with :func:`os.rename` (atomic on POSIX),
and the directory entry itself is fsynced.  A crash therefore leaves either
the old generation or the new one — never a torn snapshot under the final
name.

Files are framed the same way as write-ahead-log payloads::

    8-byte magic | u32 payload_crc32 | u64 payload_length | payload

so a snapshot damaged *after* it landed (bit rot, partial copy) is detected
by checksum and skipped in favour of an older generation rather than
unpickled into garbage.

:class:`SnapshotStore` manages a directory of ``snapshot-NNNNNNNNNNNN.snap``
files with strictly increasing generation numbers; ``load_latest`` walks
newest-to-oldest past corrupt generations (warning on each skip) and
``prune`` keeps the newest ``keep`` generations.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import time
import warnings
import zlib
from typing import Any, List, Optional, Tuple

from repro.exceptions import DurabilityError, DurabilityWarning
from repro.obs.instrument import SNAPSHOT_WRITE_SECONDS

__all__ = [
    "SNAPSHOT_MAGIC",
    "SnapshotStore",
    "atomic_write_bytes",
    "read_framed",
    "write_framed",
]

SNAPSHOT_MAGIC = b"RPSNAP01"

_FRAME = struct.Struct("<IQ")  # payload_crc32, payload_length


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + fsync + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(tmp_path, path)
    # Persist the directory entry too, so the rename itself survives power
    # loss; not all platforms allow opening a directory, hence best-effort.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_framed(path: str, payload: bytes) -> None:
    """Atomically write ``payload`` wrapped in the checksummed snapshot frame."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    atomic_write_bytes(path, SNAPSHOT_MAGIC + _FRAME.pack(crc, len(payload)) + payload)


def read_framed(path: str) -> bytes:
    """Read and verify a framed snapshot file, returning its payload.

    Raises :class:`~repro.exceptions.DurabilityError` on a bad magic,
    truncated frame or checksum mismatch.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        data = handle.read()
    header_size = len(SNAPSHOT_MAGIC) + _FRAME.size
    if len(data) < header_size or not data.startswith(SNAPSHOT_MAGIC):
        raise DurabilityError(f"{path} is not a framed snapshot file")
    crc, length = _FRAME.unpack_from(data, len(SNAPSHOT_MAGIC))
    payload = data[header_size:]
    if len(payload) != length:
        raise DurabilityError(
            f"{path}: snapshot payload is {len(payload)} bytes, frame "
            f"declares {length}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise DurabilityError(f"{path}: snapshot payload checksum mismatch")
    return payload


class SnapshotStore:
    """A directory of checksummed snapshot generations.

    Generation numbers are monotonic: each :meth:`write` lands at
    ``max(existing) + 1``, so the newest state is always the highest number
    regardless of filesystem timestamps.
    """

    _PATTERN = re.compile(r"^snapshot-(\d{12})\.snap$")

    def __init__(self, directory: str) -> None:
        self._directory = os.fspath(directory)
        os.makedirs(self._directory, exist_ok=True)

    @property
    def directory(self) -> str:
        return self._directory

    def path_for(self, generation: int) -> str:
        return os.path.join(self._directory, f"snapshot-{generation:012d}.snap")

    def generations(self) -> List[int]:
        """Existing generation numbers, ascending."""
        found = []
        for name in os.listdir(self._directory):
            match = self._PATTERN.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def write(self, obj: Any) -> Tuple[int, str]:
        """Pickle ``obj`` into the next generation; returns ``(gen, path)``."""
        metered = SNAPSHOT_WRITE_SECONDS.enabled()
        started = time.perf_counter() if metered else 0.0
        existing = self.generations()
        generation = (existing[-1] + 1) if existing else 1
        path = self.path_for(generation)
        write_framed(path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        if metered:
            SNAPSHOT_WRITE_SECONDS.observe(time.perf_counter() - started)
        return generation, path

    def load(self, generation: int) -> Any:
        """Unpickle one specific generation (checksum-verified)."""
        return pickle.loads(read_framed(self.path_for(generation)))

    def load_latest(self) -> Optional[Tuple[int, Any]]:
        """Newest generation that passes its checksum, or ``None``.

        Corrupt generations are skipped newest-to-oldest, each with a
        :class:`~repro.exceptions.DurabilityWarning`.
        """
        for generation in reversed(self.generations()):
            try:
                return generation, self.load(generation)
            except (DurabilityError, pickle.UnpicklingError, EOFError) as exc:
                warnings.warn(
                    f"skipping corrupt snapshot generation {generation} "
                    f"({exc}); falling back to an older generation",
                    DurabilityWarning,
                    stacklevel=2,
                )
        return None

    def prune(self, keep: int = 2) -> None:
        """Delete all but the newest ``keep`` generations."""
        for generation in self.generations()[:-keep] if keep > 0 else []:
            try:
                os.remove(self.path_for(generation))
            except OSError:
                pass
