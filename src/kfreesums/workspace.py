"""Reusable buffers for streamed windows.

A stream computes each window's values and reduces them with a few
window-sized temporaries.  Fresh arrays of a MiB or more cost a page fault
per 4 KiB every window, on every thread.  A Workspace holds named byte
buffers that grow but are never freed, so a window that fits in them
allocates nothing.

Workspaces wait on a module-level free list.  A window borrows one and
binds it to its thread (`borrowed`) for that window only, so no more exist
than windows ever ran at once: one per thread that runs a stream, as a
stream runs its windows on the calling thread.  The binding is per thread,
so callers that run streams on threads of their own never share a
workspace.  Workspaces hold plain arrays and no thread or lock, so they
survive a fork.  `scratch` hands out the bound workspace's buffers; on a
thread with none bound it returns a fresh array, so every public producer
that is called outside a window allocates as it always did.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from math import prod

import numpy as np

from .errors import ShapeError


class Workspace:
    """Named byte buffers, each as large as the largest request for it.

    Attributes:
        allocations: Buffers allocated so far, one per growth.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}
        self.allocations = 0

    def array(self, name: str, shape, dtype) -> np.ndarray:
        """An uninitialised array of `shape` and `dtype` over buffer `name`,
        which is replaced by a larger one when it is too small."""
        dtype = np.dtype(dtype)
        nbytes = prod((shape,) if isinstance(shape, int) else shape) * dtype.itemsize
        buf = self.buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = self.buffers[name] = np.empty(nbytes, dtype=np.uint8)
            self.allocations += 1
        return buf[:nbytes].view(dtype).reshape(shape)


# The buffer of a window's values, which a stream's callback or mertens
# writes and the reduction then reads.
VALUES = "values"
# The buffer of a window's one other large temporary: the Liouville
# kernel's accumulator while the window is sieved, then the reduction's
# prefix table.  Their lifetimes never overlap, so they share it.
TABLE = "table"

# list.pop and list.append are atomic, so the free list needs no lock
_FREE: list[Workspace] = []
_BOUND = threading.local()


@contextmanager
def borrowed():
    """Bind a workspace from the free list (a new one when it is empty) to
    the running thread; on exit restore the thread's previous binding and
    return the workspace to the list."""
    try:
        ws = _FREE.pop()
    except IndexError:
        ws = Workspace()
    previous = getattr(_BOUND, "workspace", None)
    _BOUND.workspace = ws
    try:
        yield ws
    finally:
        _BOUND.workspace = previous
        _FREE.append(ws)


def scratch(name: str, shape, dtype) -> np.ndarray:
    """Uninitialised array from the bound workspace's buffer `name`, or a
    fresh one on a thread with no workspace bound."""
    ws = getattr(_BOUND, "workspace", None)
    return np.empty(shape, dtype) if ws is None else ws.array(name, shape, dtype)


def output(out: np.ndarray | None, n: int, dtype) -> np.ndarray:
    """A fresh uninitialised array of n entries of dtype when out is None,
    else out itself, which must be exactly that: ShapeError otherwise."""
    if out is None:
        return np.empty(n, dtype)
    if out.dtype != dtype or out.shape != (n,) or not out.flags.writeable:
        raise ShapeError(
            f"out= must be a writable {np.dtype(dtype)} array of shape ({n},), "
            f"got {out.dtype}{out.shape}"
        )
    return out
