"""Zero-copy MOFT shards over POSIX shared memory.

The ``processes`` backend used to pickle whole MOFT shards into every
worker — O(rows) bytes per task.  This module replaces the payload with
a *descriptor*: the coordinator serializes all shards once into a single
index-less columnar image (:mod:`repro.mo.storage`), publishes the image
in a :class:`multiprocessing.shared_memory.SharedMemory` block, and each
task carries only ``(block name, start row, stop row, content key)`` —
O(1) bytes.  Workers attach to the block by name and materialize their
shard as zero-copy numpy views over the shared pages.

What lives how long:

* **the image** — :func:`serialize_shards` returns a :class:`ShardImage`
  (the bytes, the row range of each shard, and a *content key* naming
  exactly these bytes).  Whoever holds it can publish it any number of
  times; :class:`~repro.parallel.ShardedExecutor` keeps it per table
  version.
* **the name** — :meth:`ShardImage.publish` copies the image into a
  fresh ``repro-zc-*`` segment and returns the :class:`ShardBlock`
  owning it plus one :class:`ShardDescriptor` per shard.  Only the
  publishing side calls :meth:`ShardBlock.close`, in a ``finally``
  around the one fan-out the block serves, so the name disappears even
  when a shard task fails or a fault-injection plan kills the run.
  ``tests/parallel/test_zero_copy.py`` sweeps ``/dev/shm`` around chaos
  runs to enforce the no-leak guarantee.
* **the opened shard** — :func:`open_shard` keeps, per process, the last
  :data:`MAX_OPEN_SHARDS` shards it opened, each with its attachment
  and its :class:`~repro.mo.moft.MOFT`, under ``(content key, row
  range)``.  A descriptor with a known key is answered from that map
  without touching the new block: the old mapping outlives its unlinked
  name, and the table keeps its segment index across fan-outs.  A miss
  attaches to the descriptor's block and validates the image, as ever;
  the attachment is never registered with the resource tracker, so a
  pool worker never unlinks a segment it does not own.  An evicted
  shard drops its views first and is then really unmapped.
"""

from __future__ import annotations

import atexit
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mo.moft import MOFT
from repro.mo.storage import open_image, serialize_columns, table_from_image

#: Prefix of every shard block's segment name; the leak-sweep tests key
#: on it, and so can operators inspecting ``/dev/shm``.
BLOCK_PREFIX = "repro-zc-"


#: Opened shards a process keeps (one mapping and one table each).
MAX_OPEN_SHARDS = 8


@dataclass(frozen=True)
class ShardDescriptor:
    """One shard as a row range ``[start, stop)`` of a shared block;
    ``key`` names the image the block holds (see :class:`ShardImage`)."""

    block: str
    start: int
    stop: int
    key: str

    @property
    def rows(self) -> int:
        return self.stop - self.start


class ShardBlock:
    """The creating side's handle on one shared-memory shard image: the
    name to unlink.  The creator's own mapping ends as soon as the image
    is written, so workers forked during the fan-out inherit none."""

    def __init__(self, shm: SharedMemory, nbytes: int) -> None:
        self._shm = shm
        self.name = shm.name
        self.nbytes = nbytes
        self._closed = False

    def close(self) -> None:
        """Unlink the segment (idempotent, never raises)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "ShardBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        self.close()


@dataclass(frozen=True)
class ShardImage:
    """Shards serialized once: the index-less columnar image of their
    concatenated rows, each shard's row range in it, and the content
    key under which a process that opened a shard recognizes it again
    in a later block."""

    key: str
    data: bytes
    bounds: Tuple[Tuple[int, int], ...]

    def publish(
        self, name: Optional[str] = None
    ) -> Tuple[ShardBlock, List[ShardDescriptor]]:
        """Copy the image into a new shared block; return the owning
        handle and descriptor ``i`` addressing shard ``i``'s rows."""
        if name is None:
            name = f"{BLOCK_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
        shm = SharedMemory(create=True, size=len(self.data), name=name)
        try:
            shm.buf[: len(self.data)] = self.data
            shm.close()
        except BaseException:  # pragma: no cover - defensive
            shm.close()
            shm.unlink()
            raise
        block = ShardBlock(shm, len(self.data))
        return block, [
            ShardDescriptor(block.name, lo, hi, self.key)
            for lo, hi in self.bounds
        ]


def serialize_shards(shards: Sequence[MOFT]) -> ShardImage:
    """Serialize ``shards`` into one image (see :class:`ShardImage`).

    The shards' columns are concatenated in shard order (each shard's
    internal row order preserved).  Raises
    :class:`~repro.errors.MoftStorageError` when the object ids cannot
    be encoded (the caller then falls back to pickled payloads).
    """
    ts: List[np.ndarray] = []
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    oids: List[np.ndarray] = []
    bounds: List[Tuple[int, int]] = []
    cursor = 0
    table_name = shards[0].name if shards else "MOFT"
    for shard in shards:
        t, x, y = shard.as_arrays()
        ts.append(t)
        xs.append(x)
        ys.append(y)
        oids.append(shard.oid_column())
        bounds.append((cursor, cursor + len(t)))
        cursor += len(t)
    data = serialize_columns(
        table_name,
        np.concatenate(oids) if oids else np.empty(0, dtype=object),
        np.concatenate(ts) if ts else np.empty(0, dtype=float),
        np.concatenate(xs) if xs else np.empty(0, dtype=float),
        np.concatenate(ys) if ys else np.empty(0, dtype=float),
        include_index=False,
    )
    return ShardImage(os.urandom(8).hex(), data, tuple(bounds))


def create_shard_block(
    shards: Sequence[MOFT],
    name: Optional[str] = None,
) -> Tuple[ShardBlock, List[ShardDescriptor]]:
    """Serialize ``shards`` and publish the image once, in one step."""
    return serialize_shards(shards).publish(name)


# -- worker side ---------------------------------------------------------------

# (content key, start, stop) -> (attachment, shard), least recently
# opened first.
_OPEN: "OrderedDict[Tuple[str, int, int], Tuple[SharedMemory, MOFT]]" = (
    OrderedDict()
)
_OPEN_LOCK = threading.Lock()


def _attach(name: str) -> SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Python 3.13 grew ``track=False``; on older versions attaching
    registers the segment with the resource tracker, which would unlink
    it when *this* process exits — stealing it from the creator (and an
    explicit unregister would instead strip the *creator's* entry from
    the shared tracker).  There, suppress the registration itself for
    the duration of the constructor.
    """
    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _detach(shm: SharedMemory) -> None:
    """Close an attachment; abandon the mapping if views still export it.

    Abandoning (rather than erroring or retrying) is safe: the creator
    owns the unlink, and the mapping goes with the last view of it (at
    the latest when this process exits).  Nulling the handles also keeps
    ``SharedMemory.__del__`` from re-raising at interpreter teardown;
    the second ``close`` then releases the file descriptor, which a
    long-lived worker would otherwise leak once per abandoned mapping.
    """
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None
        shm.close()


def _evict(keep: int) -> None:
    """Close the least recently opened shards beyond ``keep`` of them."""
    while len(_OPEN) > keep:
        _, (shm, shard) = _OPEN.popitem(last=False)
        del shard  # the views go first, then the mapping they view
        _detach(shm)


atexit.register(_evict, 0)


def moft_from_descriptor(descriptor: ShardDescriptor) -> MOFT:
    """One shard as views over shared memory: the table this process
    already opened under the descriptor's content key and row range, or
    a new one over the descriptor's block (validated on attach)."""
    slot = (descriptor.key, descriptor.start, descriptor.stop)
    with _OPEN_LOCK:
        hit = _OPEN.get(slot)
        if hit is not None:
            _OPEN.move_to_end(slot)
            return hit[1]
        shm = _attach(descriptor.block)
        try:
            shard = table_from_image(
                open_image(shm.buf, source=f"shm://{descriptor.block}"),
                descriptor.start,
                descriptor.stop,
            )
        except BaseException:
            _detach(shm)
            raise
        _OPEN[slot] = (shm, shard)
        _evict(MAX_OPEN_SHARDS)
        return shard


def open_shard(shard: "MOFT | ShardDescriptor") -> MOFT:
    """The shard a task payload carries, whichever way it travelled: the
    table itself (pickled transport) or views over shared memory
    (zero-copy transport; resident between fan-outs)."""
    if isinstance(shard, ShardDescriptor):
        return moft_from_descriptor(shard)
    return shard


def leaked_segments() -> List[str]:
    """Names of ``repro-zc-*`` segments currently present in /dev/shm.

    Test/diagnostic helper: after every fan-out (chaotic or not) this
    must be empty.  Returns an empty list on platforms without a
    /dev/shm to inspect.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(BLOCK_PREFIX))


__all__ = [
    "BLOCK_PREFIX",
    "MAX_OPEN_SHARDS",
    "ShardBlock",
    "ShardDescriptor",
    "ShardImage",
    "create_shard_block",
    "leaked_segments",
    "moft_from_descriptor",
    "open_shard",
    "serialize_shards",
]
