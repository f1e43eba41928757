"""Reusable buffers for streamed windows, and the byte budget of every
dense table sized by a caller's input.

A stream computes each window's values and reduces them with a few
window-sized temporaries.  Fresh arrays of a MiB or more cost a page fault
per 4 KiB every window.  A Workspace holds named byte buffers that grow but
are never freed, so a window that fits in them allocates nothing.

Workspaces wait on a module-level free list.  A window walk (every one
goes through `summatory._windows`) borrows one and binds it to its thread
(`borrowed`) while it runs, so no more exist than walks ever ran at once:
one per thread that runs them.  The binding is per thread, so callers
that run streams on threads of their own never share a workspace.  `scratch` hands out the
bound workspace's buffers; on a thread with none bound it returns a fresh
array, so every public producer that is called outside a stream allocates
as it always did.

Every array whose size the caller's input sets (a fresh `output` or
`scratch` array, a workspace buffer that grows, the sieves' and factor
tables) is checked by `check_bytes` against MAX_SPF_BYTES before it is
allocated, and past it raises CapacityError, not numpy's MemoryError.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from math import prod

import numpy as np

from .errors import CapacityError, ShapeError

# Largest dense table sized by a caller's input (2 GiB): a sieve's flags or
# smallest prime factors, a factor table, a window's values or temporaries.
MAX_SPF_BYTES = 2**31


def check_bytes(nbytes: int, what: str) -> None:
    """CapacityError "{what} needs {nbytes} bytes, budget is {MAX_SPF_BYTES}"
    when nbytes exceeds MAX_SPF_BYTES."""
    if nbytes > MAX_SPF_BYTES:
        raise CapacityError(f"{what} needs {nbytes} bytes, budget is {MAX_SPF_BYTES}")


def _nbytes(shape, dtype: np.dtype) -> int:
    return prod((shape,) if isinstance(shape, int) else shape) * dtype.itemsize


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
        which is replaced by a larger one when it is too small (CapacityError
        past MAX_SPF_BYTES)."""
        dtype = np.dtype(dtype)
        nbytes = _nbytes(shape, dtype)
        buf = self.buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            check_bytes(nbytes, f"workspace buffer {name!r}")
            buf = self.buffers[name] = np.empty(nbytes, dtype=np.uint8)
            self.allocations += 1
        return buf[:nbytes].view(dtype).reshape(shape)


# The buffer of a window's values, which a walk's fill writes and its
# reduction then reads.
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
    fresh one on a thread with no workspace bound; CapacityError past
    MAX_SPF_BYTES either way."""
    ws = getattr(_BOUND, "workspace", None)
    if ws is not None:
        return ws.array(name, shape, dtype)
    check_bytes(_nbytes(shape, np.dtype(dtype)), f"scratch array {name!r}")
    return np.empty(shape, dtype)


def output(out: np.ndarray | None, n: int, dtype) -> np.ndarray:
    """A fresh uninitialised array of n entries of dtype when out is None
    (CapacityError past MAX_SPF_BYTES), else out itself, which must be
    exactly that: ShapeError otherwise."""
    if out is None:
        check_bytes(n * np.dtype(dtype).itemsize, f"array of {n} values")
        return np.empty(n, dtype)
    if out.dtype != dtype or out.shape != (n,) or not out.flags.writeable:
        raise ShapeError(
            f"out= must be a writable {np.dtype(dtype)} array of shape ({n},), "
            f"got {out.dtype}{out.shape}"
        )
    return out
