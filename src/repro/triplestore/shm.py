"""Shared-memory publication of the sharded columnar encoding.

The process-parallel shard executor (:mod:`repro.core.engines.procpool`)
needs every worker to see the store — the per-shard sorted packed-key
arrays, the ρ encoding and the dictionary — without pickling relations
over pipes.  This module publishes one ``multiprocessing.shared_memory``
segment per ``(store, shards, key_pos)`` view:

* a small pickled *manifest* (offsets, lengths, shard geometry) at the
  head of the segment;
* the raw ``int64`` bytes of every per-relation per-shard key array,
  ``dv_codes`` and the active-code set — workers map these zero-copy as
  numpy views over the segment buffer;
* the pickled object and data-value dictionaries (the only Python-object
  payload; decoded once per worker attach).

Workers rebuild a :class:`~repro.triplestore.sharded.ShardedColumnarStore`
over a :class:`_ShmColumnarView` whose arrays alias the segment, so the
merge-join/set-algebra kernels run against shared pages.

Lifecycle hygiene (the part that keeps ``/dev/shm`` clean):

* a :class:`SharedStoreHandle` owns each published segment; it unlinks
  on :meth:`~SharedStoreHandle.close` and on garbage collection, and
  every live handle is tracked so an ``atexit`` sweep unlinks anything
  still mapped at interpreter shutdown;
* the ``resource_tracker`` ledger stays balanced: the creating process
  registers on create and unregisters via ``unlink``, and attachers
  leave the ledger alone (the pool's spawned workers share the parent's
  tracker, so an attach-side unregister would remove the creator's
  entry and trigger spurious tracker errors).
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
import struct
import threading
import weakref
from multiprocessing import shared_memory
from typing import Any, Callable, Optional

import numpy as np

from repro.triplestore.columnar import ColumnarStore, sorted_unique
from repro.triplestore.sharded import ShardedColumnarStore

__all__ = [
    "SharedStoreHandle",
    "attach_worker_store",
    "live_segment_names",
    "publish_sharded_store",
]

#: Header: little-endian u64 byte length of the pickled manifest.
_HEADER = struct.Struct("<Q")

_ITEMSIZE = np.dtype(np.int64).itemsize

_REGISTRY_LOCK = threading.Lock()
#: name -> weakref to the owning handle; swept at exit for stragglers.
_LIVE_HANDLES: dict[str, "weakref.ref[SharedStoreHandle]"] = {}


def _segment_name(prefix: str) -> str:
    """A collision-resistant segment name (``/dev/shm`` is global)."""
    return f"{prefix}-{os.getpid():x}-{secrets.token_hex(4)}"


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    On Python < 3.13 attaching re-registers the segment with the
    resource tracker; worker processes spawned by the pool share the
    parent's tracker, so the duplicate registration is a set no-op and
    the creator's eventual ``unlink`` keeps the ledger balanced —
    unregistering here would instead *unbalance* it and make the
    tracker warn about names it no longer knows.
    """
    return shared_memory.SharedMemory(name=name, create=False)


class SharedStoreHandle:
    """Owner of one published store segment (created-side lifetime).

    ``close()`` is idempotent and unlinks the segment; dropping the last
    reference does the same via ``__del__``, and an ``atexit`` sweep
    catches anything still live at interpreter shutdown — repeated store
    builds in one process must never leak ``/dev/shm`` entries.
    """

    def __init__(self, shm: shared_memory.SharedMemory, nbytes: int) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.name = shm.name
        self.nbytes = nbytes
        with _REGISTRY_LOCK:
            _LIVE_HANDLES[self.name] = weakref.ref(self)

    @property
    def closed(self) -> bool:
        return self._shm is None

    def close(self) -> None:
        """Unlink the segment (idempotent; safe under GC and atexit)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        with _REGISTRY_LOCK:
            _LIVE_HANDLES.pop(self.name, None)
        # Tell live worker pools to drop their mappings first (best
        # effort; imported lazily to keep the layers acyclic).
        try:
            from repro.core.engines import procpool

            procpool.notify_store_closed(self.name)
        except Exception:
            pass
        try:
            shm.close()
        except Exception:  # pragma: no cover — buffer already released
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover — already gone
            pass

    def __del__(self) -> None:  # pragma: no cover — GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.nbytes}B"
        return f"SharedStoreHandle({self.name!r}, {state})"


def live_segment_names() -> tuple[str, ...]:
    """Names of segments this process has published and not yet unlinked."""
    with _REGISTRY_LOCK:
        return tuple(
            name for name, ref in _LIVE_HANDLES.items() if ref() is not None
        )


@atexit.register
def _sweep() -> None:  # pragma: no cover — exercised at interpreter exit
    with _REGISTRY_LOCK:
        refs = list(_LIVE_HANDLES.values())
    for ref in refs:
        handle = ref()
        if handle is not None:
            try:
                handle.close()
            except Exception:
                pass


# --------------------------------------------------------------------- #
# Publish (parent side)
# --------------------------------------------------------------------- #


def publish_sharded_store(ss: ShardedColumnarStore) -> SharedStoreHandle:
    """Publish ``ss`` into one shared-memory segment, cached on the view.

    The segment holds every relation's per-shard packed-key array, the
    ρ encoding and the pickled dictionaries; repeated calls return the
    cached handle, so a store is copied into shared memory at most once
    per ``(shards, key_pos)`` view.
    """
    handle = ss._shm
    if handle is not None and not handle.closed:
        return handle

    cs = ss.cs
    arrays: dict[str, np.ndarray] = {
        "dv_codes": cs.dv_codes,
        "active": cs.active_codes(),
    }
    for name in ss.relation_names:
        for s, shard in enumerate(ss.relation_shards(name)):
            arrays[f"rel:{name}:{s}"] = np.ascontiguousarray(shard, dtype=np.int64)
    pickles = {
        "objects": pickle.dumps(cs.objects, protocol=pickle.HIGHEST_PROTOCOL),
        "dv_values": pickle.dumps(cs.dv_values, protocol=pickle.HIGHEST_PROTOCOL),
    }

    manifest: dict[str, Any] = {
        "n": cs.n,
        "radix": cs.radix,
        "k": ss.k,
        "key_pos": ss.key_pos,
        "relations": tuple(ss.relation_names),
        "arrays": {},
        "pickles": {},
    }
    # Lay out: header | manifest pickle | 8-aligned array/pickle region.
    # Manifest offsets are relative to the region start, so the manifest
    # can be pickled before the final header length is known.
    offset = 0
    for key, arr in arrays.items():
        manifest["arrays"][key] = (offset, len(arr))
        offset += len(arr) * _ITEMSIZE
    for key, blob in pickles.items():
        manifest["pickles"][key] = (offset, len(blob))
        offset += len(blob) + (-len(blob)) % _ITEMSIZE
    region_size = offset

    blob = pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL)
    head = _HEADER.size + len(blob)
    region_start = head + (-head) % _ITEMSIZE
    total = max(region_start + region_size, 1)

    shm = shared_memory.SharedMemory(
        name=_segment_name("repro-store"), create=True, size=total
    )
    buf = shm.buf
    buf[: _HEADER.size] = _HEADER.pack(len(blob))
    buf[_HEADER.size : _HEADER.size + len(blob)] = blob
    for key, arr in arrays.items():
        off, length = manifest["arrays"][key]
        if length:
            view = np.ndarray(
                (length,), dtype=np.int64, buffer=buf,
                offset=region_start + off,
            )
            view[:] = arr
    for key, data in pickles.items():
        off, nbytes = manifest["pickles"][key]
        buf[region_start + off : region_start + off + nbytes] = data

    handle = SharedStoreHandle(shm, total)
    ss._shm = handle
    return handle


# --------------------------------------------------------------------- #
# Attach (worker side)
# --------------------------------------------------------------------- #


class _ShmColumnarView(ColumnarStore):
    """A :class:`ColumnarStore` whose arrays alias a shared segment.

    Built by :func:`attach_worker_store` via slot-filling — the parent
    ``__init__`` (which encodes from a :class:`Triplestore`) never runs.
    Only :meth:`relation_keys` needs overriding: relations live in the
    segment as per-shard arrays, so the flat form is merged on demand.
    """

    __slots__ = ("_shard_keys",)

    def relation_keys(self, name: str) -> np.ndarray:
        cached = self._relations.get(name)
        if cached is None:
            try:
                shards = self._shard_keys[name]
            except KeyError:
                from repro.errors import UnknownRelationError

                raise UnknownRelationError(
                    name, tuple(self._shard_keys)
                ) from None
            cached = (
                shards[0]
                if len(shards) == 1
                else sorted_unique(np.concatenate(shards))
            )
            self._relations[name] = cached
        return cached

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._shard_keys)


class AttachedStore:
    """A worker's view of one published store segment.

    Bundles the rebuilt :class:`ShardedColumnarStore`, a ρ lookup
    compatible with :meth:`Triplestore.rho`, and the mapped segment
    (held open for as long as the arrays alias it).
    """

    __slots__ = ("ss", "rho", "_shm")

    def __init__(
        self,
        ss: ShardedColumnarStore,
        rho: Callable[[Any], Any],
        shm: shared_memory.SharedMemory,
    ) -> None:
        self.ss = ss
        self.rho = rho
        self._shm = shm

    def close(self) -> None:
        """Drop the mapping (best effort: live array views block it)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover — views still exported
            pass


def attach_worker_store(name: str) -> AttachedStore:
    """Attach a published segment and rebuild the sharded store view."""
    shm = attach_segment(name)
    buf = shm.buf
    (blob_len,) = _HEADER.unpack(buf[: _HEADER.size])
    manifest = pickle.loads(bytes(buf[_HEADER.size : _HEADER.size + blob_len]))
    head = _HEADER.size + blob_len
    region_start = head + (-head) % _ITEMSIZE

    def array(key: str) -> np.ndarray:
        off, length = manifest["arrays"][key]
        if not length:
            return np.empty(0, dtype=np.int64)
        view = np.ndarray(
            (length,), dtype=np.int64, buffer=buf, offset=region_start + off
        )
        # Every worker maps the same bytes: nobody writes through a view.
        view.setflags(write=False)
        return view

    def unpickle(key: str) -> Any:
        off, nbytes = manifest["pickles"][key]
        return pickle.loads(bytes(buf[region_start + off : region_start + off + nbytes]))

    objects = unpickle("objects")
    dv_values = unpickle("dv_values")

    cs = _ShmColumnarView.from_encoded(
        objects, dv_values, array("dv_codes"), {}, array("active")
    )
    cs._shard_keys = {
        rel: [array(f"rel:{rel}:{s}") for s in range(manifest["k"])]
        for rel in manifest["relations"]
    }

    ss = ShardedColumnarStore(cs, manifest["k"], manifest["key_pos"])
    ss._shards = dict(cs._shard_keys)

    dv_codes = cs.dv_codes
    code_of = cs._code_of

    def rho(obj: Any) -> Any:
        code = code_of.get(obj)
        if code is None:
            return None
        return dv_values[dv_codes[code]]

    return AttachedStore(ss, rho, shm)
