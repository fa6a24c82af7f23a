"""Zero-copy MOFT shards over POSIX shared memory.

The ``processes`` backend used to pickle whole MOFT shards into every
worker — O(rows) bytes per task, which ROADMAP item 3 flags as eating
the fan-out speedup on 250k+ sample worlds.  This module replaces the
payload with a *descriptor*: the coordinator writes all shards once into
one :class:`multiprocessing.shared_memory.SharedMemory` block as a
single index-less columnar image (:mod:`repro.mo.storage`), and each
task carries only ``(block name, start row, stop row)`` — O(1) bytes.
Workers attach to the block by name and materialize their shard as
zero-copy numpy views over the shared pages.

Lifecycle contract:

* **create** — :func:`create_shard_block` serializes the shards and
  returns a :class:`ShardBlock` (owning the segment) plus one
  :class:`ShardDescriptor` per shard, in shard order.
* **attach** — shard tasks open their payload's shard with
  :func:`open_shard`, which for a descriptor is
  :func:`moft_from_descriptor`; the attachment is cached per process
  (one block at a time) and explicitly *unregistered* from the resource
  tracker, so a pool worker never unlinks a segment it does not own.
* **unlink** — only the creating side calls :meth:`ShardBlock.close`,
  in a ``finally`` around the fan-out, so the segment disappears even
  when a shard task fails or a fault-injection plan kills the run.
  ``tests/parallel/test_zero_copy.py`` sweeps ``/dev/shm`` around chaos
  runs to enforce the no-leak guarantee.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mo.moft import MOFT
from repro.mo.storage import (
    MoftImage,
    open_image,
    serialize_columns,
    table_from_image,
)

#: Prefix of every shard block's segment name; the leak-sweep tests key
#: on it, and so can operators inspecting ``/dev/shm``.
BLOCK_PREFIX = "repro-zc-"


@dataclass(frozen=True)
class ShardDescriptor:
    """One shard as a row range ``[start, stop)`` of a shared block."""

    block: str
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


class ShardBlock:
    """The creating side's handle on one shared-memory shard image."""

    def __init__(self, shm: SharedMemory, nbytes: int) -> None:
        self._shm = shm
        self.name = shm.name
        self.nbytes = nbytes
        self._closed = False

    def close(self) -> None:
        """Release and unlink the segment (idempotent, never raises)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
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


def create_shard_block(
    shards: Sequence[MOFT],
    name: Optional[str] = None,
) -> Tuple[ShardBlock, List[ShardDescriptor]]:
    """Serialize ``shards`` into one shared block; return its descriptors.

    The shards' columns are concatenated in shard order (each shard's
    internal row order preserved), so descriptor ``i`` addresses exactly
    shard ``i``'s rows.  Raises
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
    image = serialize_columns(
        table_name,
        np.concatenate(oids) if oids else np.empty(0, dtype=object),
        np.concatenate(ts) if ts else np.empty(0, dtype=float),
        np.concatenate(xs) if xs else np.empty(0, dtype=float),
        np.concatenate(ys) if ys else np.empty(0, dtype=float),
        include_index=False,
    )
    if name is None:
        name = f"{BLOCK_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
    shm = SharedMemory(create=True, size=len(image), name=name)
    try:
        shm.buf[: len(image)] = image
    except BaseException:  # pragma: no cover - defensive
        shm.close()
        shm.unlink()
        raise
    block = ShardBlock(shm, len(image))
    descriptors = [
        ShardDescriptor(block=block.name, start=lo, stop=hi)
        for lo, hi in bounds
    ]
    return block, descriptors


# -- worker side ---------------------------------------------------------------

# One attached block per process: fan-outs use a single block, so a
# size-1 cache gives every task of a run a free attach after the first.
_ATTACHED: Dict[str, Tuple[SharedMemory, MoftImage]] = {}


_ATTACH_LOCK = threading.Lock()


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
    owns the unlink, and a dangling private mapping is reclaimed by the
    kernel when this process exits.  Nulling the handles also keeps
    ``SharedMemory.__del__`` from re-raising at interpreter teardown.
    """
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None


def _drain_attachments() -> None:
    for name in list(_ATTACHED):
        shm, _ = _ATTACHED.pop(name)
        _detach(shm)


atexit.register(_drain_attachments)


def attached_image(name: str) -> MoftImage:
    """The parsed columnar image of block ``name`` (cached per process)."""
    with _ATTACH_LOCK:
        hit = _ATTACHED.get(name)
        if hit is not None:
            return hit[1]
        _drain_attachments()
        shm = _attach(name)
        image = open_image(shm.buf, source=f"shm://{name}")
        _ATTACHED[name] = (shm, image)
        return image


def moft_from_descriptor(descriptor: ShardDescriptor) -> MOFT:
    """Materialize one shard as views over its shared block."""
    image = attached_image(descriptor.block)
    return table_from_image(image, descriptor.start, descriptor.stop)


def open_shard(shard: "MOFT | ShardDescriptor") -> MOFT:
    """The shard a task payload carries, whichever way it travelled: the
    table itself (pickled transport) or views over the shared block its
    descriptor names (zero-copy transport)."""
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
    "ShardBlock",
    "ShardDescriptor",
    "attached_image",
    "create_shard_block",
    "leaked_segments",
    "moft_from_descriptor",
    "open_shard",
]
