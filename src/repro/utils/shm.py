"""POSIX shared-memory plumbing for the zero-copy graph and world stores.

Everything here wraps :mod:`multiprocessing.shared_memory` with the three
behaviours the diffusion stack needs and the standard library does not give
directly:

* **Untracked segments.**  ``multiprocessing.resource_tracker`` unlinks every
  tracked segment when *any* process that touched it exits — so a worker
  attaching to the parent's graph would destroy it for everyone on worker
  exit (bpo-38119).  Segments created or attached through this module never
  reach the tracker at all (``track=False`` on Python 3.13+, tracker calls
  suppressed during open/unlink before that); lifetime is managed explicitly
  by the owner instead.
* **Owner-side sweep.**  Each creating process records the segments it owns
  in a PID-guarded registry; :func:`sweep_owned` unlinks them and runs at
  interpreter exit via :mod:`atexit`, so an owner that forgets to clean up
  (or is interrupted) does not leak ``/dev/shm`` entries.  The PID guard
  matters under ``fork``: children inherit the registry but must never unlink
  the parent's segments.
* **Array packing.**  :func:`pack_arrays` copies a set of named numpy arrays
  into one segment and returns a small manifest (segment name + per-field
  dtype/shape/offset) from which :func:`attach_arrays` rebuilds zero-copy
  read-only views in any process.  The manifest is a few hundred bytes of
  plain Python data — that is what travels over a pickle instead of the
  arrays themselves.

Attachers never unlink: creator-unlinks / attacher-closes is the ownership
rule everywhere in this package, which is what makes a crashed worker unable
to leak anything — the parent's sweep still covers every segment.
"""

from __future__ import annotations

import atexit
import contextlib
import logging
import os
import secrets
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

logger = logging.getLogger(__name__)

try:  # pragma: no cover - the standard library always has it on Linux/macOS
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing.shared_memory import SharedMemory as _SharedMemory
except ImportError:  # pragma: no cover - exotic platforms only
    _resource_tracker = None
    _SharedMemory = None

#: Prefix of every segment this package creates; the leak probes and the CI
#: assertion key on it.
SEGMENT_PREFIX = "repro-"

#: Python 3.13+ accepts ``track=False`` natively; older versions need the
#: unregister workaround after the tracker has already seen the segment.
_SUPPORTS_TRACK = (
    _SharedMemory is not None
    and "track" in (getattr(_SharedMemory.__init__, "__kwdefaults__", None) or {})
)

#: Segment name -> creating PID.  Only entries whose PID matches the current
#: process are swept — fork-inherited copies of the registry stay inert.
_OWNED: Dict[str, int] = {}

#: 64-byte alignment for every packed field, comfortable for any SIMD width.
_ALIGN = 64


def shared_memory_available() -> bool:
    """Whether POSIX shared memory is usable on this platform."""
    return _SharedMemory is not None


_tracker_mutex = threading.Lock()


@contextlib.contextmanager
def _tracker_suppressed():
    """No-op the resource tracker for the duration (bpo-38119 workaround).

    Pre-3.13 ``SharedMemory`` unconditionally registers every open — create
    *and* attach — with the resource tracker, and ``unlink`` unregisters.
    Every process of the tree talks to one tracker whose name cache is a
    plain set, so the register/unregister pairs of concurrent workers
    interleave: two registers collapse into one entry and the second
    unregister makes the tracker print a ``KeyError`` traceback (and at
    shutdown it "cleans up" segments it never owned).  This module manages
    segment lifetime explicitly through the PID-guarded owner registry, so
    the tracker must simply never hear about our segments: suppress the
    calls at the source rather than unregistering after the fact.
    """
    if _SUPPORTS_TRACK or _resource_tracker is None:
        yield
        return
    with _tracker_mutex:
        saved_register = _resource_tracker.register
        saved_unregister = _resource_tracker.unregister
        _resource_tracker.register = lambda name, rtype: None
        _resource_tracker.unregister = lambda name, rtype: None
        try:
            yield
        finally:
            _resource_tracker.register = saved_register
            _resource_tracker.unregister = saved_unregister


if _SharedMemory is not None:

    class _Segment(_SharedMemory):
        """A ``SharedMemory`` whose destructor tolerates live array views.

        Numpy views onto the mapping routinely outlive the segment object
        (they keep the pages alive themselves); the base destructor's
        ``close()`` then raises :class:`BufferError`, which at interpreter
        shutdown prints an "Exception ignored" traceback.  Swallow it — the
        mapping is released when the views die, nothing leaks.
        """

        def __del__(self):
            try:
                super().__del__()
            except (BufferError, OSError) as error:
                # BufferError: live numpy views still pin the mapping (the
                # pages are released when they die).  OSError: the fd was
                # already closed by an explicit close().  Both are expected
                # at teardown; anything else should surface.
                logger.debug("segment destructor swallowed %r", error)

        def close(self):
            try:
                super().close()
            except BufferError:
                # Live numpy views pin the mapping (the kernel frees the
                # pages when they die), but the descriptor is independent
                # and must not be allowed to accumulate: close it now.
                # The base close() releases the buffer *first*, so a later
                # call cannot double-close the already-freed fd.
                fd = getattr(self, "_fd", -1)
                if fd >= 0:
                    try:
                        os.close(fd)
                    except OSError:  # pragma: no cover - already closed
                        pass
                    self._fd = -1
                raise

        def unlink(self):
            # The segment was opened with the tracker suppressed, so the
            # unregister message the base unlink would send is unbalanced —
            # suppress it the same way.
            with _tracker_suppressed():
                super().unlink()

else:  # pragma: no cover - exotic platforms only
    _Segment = None


def _open_segment(name: str, create: bool, size: int = 0):
    if _SharedMemory is None:  # pragma: no cover - exotic platforms only
        raise OSError("multiprocessing.shared_memory is unavailable")
    if _SUPPORTS_TRACK:
        return _Segment(name=name, create=create, size=size, track=False)
    with _tracker_suppressed():
        return _Segment(name=name, create=create, size=size)


def create_segment(name: Optional[str], size: int):
    """Create an untracked segment; raises :class:`FileExistsError` on a
    name collision (the caller decides whether that means "someone else won
    the race" or a bug).  ``name=None`` draws a random collision-free name."""
    if name is not None:
        return _open_segment(name, create=True, size=size)
    while True:
        candidate = f"{SEGMENT_PREFIX}{secrets.token_hex(8)}"
        try:
            return _open_segment(candidate, create=True, size=size)
        except FileExistsError:  # pragma: no cover - 64-bit collision
            continue


def attach_segment(name: str):
    """Attach to an existing untracked segment (:class:`FileNotFoundError`
    when it does not exist — the caller's fallback path)."""
    return _open_segment(name, create=False)


def close_segment(segment) -> None:
    """Close an attached segment, tolerating live exported array views.

    ``SharedMemory.close`` raises :class:`BufferError` while numpy arrays
    still view the mapping; in that case the views keep the mapping alive
    and the OS reclaims it when they die — nothing leaks either way.
    """
    try:
        segment.close()
    except BufferError:
        pass


def register_owned(name: str) -> None:
    """Record ``name`` for this process's exit sweep (creator side only)."""
    _OWNED[name] = os.getpid()


def unlink_segment(name: str) -> bool:
    """Unlink ``name`` if it exists; returns whether anything was removed.

    Safe to call for segments created by *other* processes (the worker-crash
    sweep does exactly that); attached processes keep their mappings alive,
    only the name disappears.
    """
    _OWNED.pop(name, None)
    try:
        segment = attach_segment(name)
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - permissions, platform quirks
        return False
    try:
        segment.unlink()
    finally:
        close_segment(segment)
    return True


def release_owned(segment) -> None:
    """Unlink + close a segment this process created (idempotent-ish owner
    teardown: missing names are tolerated, live attachers elsewhere keep
    their mappings)."""
    _OWNED.pop(segment.name, None)
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    close_segment(segment)


def sweep_owned() -> int:
    """Unlink every segment this process created; returns how many."""
    pid = os.getpid()
    removed = 0
    for name, owner_pid in list(_OWNED.items()):
        if owner_pid != pid:
            _OWNED.pop(name, None)
            continue
        if unlink_segment(name):
            removed += 1
    return removed


atexit.register(sweep_owned)


# ----------------------------------------------------------------------
# array packing
# ----------------------------------------------------------------------


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_arrays(
    arrays: Sequence[Tuple[str, np.ndarray]], *, name: Optional[str] = None
) -> Tuple[object, dict]:
    """Copy named arrays into one new segment; returns ``(segment, manifest)``.

    The manifest is plain picklable data — ``{"segment", "fields"}`` with one
    ``(field, dtype, shape, offset)`` entry per array — and is everything
    :func:`attach_arrays` needs to rebuild the views elsewhere.  The segment
    is registered for this process's exit sweep; the caller owns unlinking.
    """
    fields: List[Tuple[str, str, Tuple[int, ...], int]] = []
    offset = 0
    prepared: List[np.ndarray] = []
    for field, array in arrays:
        array = np.ascontiguousarray(array)
        prepared.append(array)
        offset = _aligned(offset)
        fields.append((field, array.dtype.str, tuple(array.shape), offset))
        offset += array.nbytes
    segment = create_segment(name, max(offset, 1))
    register_owned(segment.name)
    for array, (_, dtype, shape, field_offset) in zip(prepared, fields):
        if array.nbytes == 0:
            continue
        view = np.frombuffer(
            segment.buf, dtype=np.dtype(dtype), count=array.size, offset=field_offset
        )
        view[:] = array.reshape(-1)
    manifest = {"segment": segment.name, "fields": fields}
    return segment, manifest


def attach_arrays(
    manifest: dict, segment=None
) -> Tuple[object, Dict[str, np.ndarray]]:
    """Attach to a packed segment; returns ``(segment, {field: view})``.

    The views are read-only (shared pages must never be scribbled on by an
    attacher) and keep the mapping alive for as long as they exist.  Pass the
    already-open ``segment`` to build views without a second mapping (the
    creator's own zero-copy read path).
    """
    if segment is None:
        segment = attach_segment(manifest["segment"])
    views: Dict[str, np.ndarray] = {}
    for field, dtype, shape, offset in manifest["fields"]:
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        view = np.frombuffer(segment.buf, dtype=dt, count=count, offset=offset)
        view = view.reshape(shape)
        view.flags.writeable = False
        views[field] = view
    return segment, views
