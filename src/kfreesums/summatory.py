"""Exact partial sums M_f(x) = sum_{n<=x} f(n) at scale.

Sums are streamed over sieve segments so the full value table for x is
never materialised; every accumulator is an integer type that its sums
cannot leave (int8 or int16 within a block of at most 64 one-byte values,
int64 across a window's blocks, Python ints across windows) and no floating
point enters any sum.  A checkpoint schedule records (x, M(x)) pairs
along the way together with the exact running maximum of |M(t)| over all
integers t <= x.

The Dirichlet hyperbola identity

    sum_{n<=x} (h*g)(n) = sum_{n<=U} h(n) M_g(x/n)
                        + sum_{n<=V} g(n) M_h(x/n) - M_g(V) M_h(U)

with U*V = x is evaluated with all bounds discretised to integer floors.
Each value side is its function's support, a pair (n, values) of
ascending int64 n >= 1 with one value each; its summatory sides are
oracles: callables that take an int64 array of arguments y >= 0 and return
the int64 array of M(y), raising OracleDomainError that names the first
argument outside their domain (a scalar argument gives a Python int).
They are a PrefixSummatory over a value table or over the k-th-power
support of h, a SmoothSummatory of a g that departs from its character chi
only on a finite prime set S (M_g from a few hundred S-smooth terms and
chi's one-period prefix), or a character's own partial_sum.  Roots come
from searchsorted over exact int64 tables of m^k, never from floats.  Each
side of the identity is whole-array work: one oracle call per block of
nonzero support values and an int64 dot product, taken in Python ints
whenever a bound on its terms could pass 2^63 - 1.  `kfree_hyperbola_sum`
wires them up for f = [k-free]*g: h's support on the k-th powers and its
oracle from one sieve of mu(m) g(m)^k, and the S-smooth oracle on the g
side, so that route streams nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from operator import mul
from typing import Callable

import numpy as np

from .characters import RealCharacter
from .convolution import kfree_factor_at_powers, smooth_terms
from .errors import CapacityError, OracleDomainError, RangeError, ShapeError
from .rules import MultiplicativeRule
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_LIMIT,
    as_int,
    as_real,
    as_schedule,
    introot,
    liouville_kfree_segment,
    segments,
    sieve_mobius_segment,
    sieve_primes,
)
from .workspace import TABLE, VALUES, borrowed, scratch

# Streaming budget: ranges past this need more than the intended memory/time
# envelope of the workbench.
MAX_STREAM_LIMIT = 4 * 10**9
# Budget of the floor-set recursion in mertens_recursive.
MAX_RECURSIVE_MERTENS = 10**10


def _check_limit(limit: int, budget: int = MAX_STREAM_LIMIT, what: str = "streaming") -> int:
    """limit as an int.  RangeError if it is not an integer or is below 1,
    CapacityError past `budget`; each names the limit."""
    limit = as_int(limit, "limit", minimum=1)
    if limit > budget:
        raise CapacityError(f"limit {limit} beyond {what} budget {budget}")
    return limit


SCHEDULE_START = 10


def checkpoint_schedule(limit: int, ratio: float | None = None) -> list[int]:
    """Geometric checkpoints x_{i+1} = ceil(ratio * x_i) from SCHEDULE_START,
    plus every power of 10 and the endpoint itself; ratio 1.05 unless given."""
    limit = as_int(limit, "schedule limit", minimum=1)
    ratio = 1.05 if ratio is None else as_real(ratio, "schedule ratio")
    if ratio <= 1.0:
        raise RangeError(f"schedule ratio must exceed 1, got {ratio}")
    pts = {limit}
    x = SCHEDULE_START
    while x <= limit:
        pts.add(x)
        # past limit + 1 the product only ends the loop (and may be inf)
        x = max(x + 1, math.ceil(min(ratio * x, limit + 1)))
    p = 10
    while p <= limit:
        pts.add(p)
        p *= 10
    return sorted(pts)


@dataclass(frozen=True)
class PartialSumSeries:
    """Checkpointed summatory values with running-max statistics.

    checkpoints[i] = (x_i, M(x_i)); running_abs_max[i] = (x_i, max over
    all integers t <= x_i of |M(t)|), tracked exactly during streaming.
    """

    label: str
    checkpoints: list[tuple[int, int]]
    running_abs_max: list[tuple[int, int]]

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.checkpoints]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise RangeError("checkpoints must be strictly increasing in x")
        if any(abs(m) > x for x, m in self.checkpoints):
            raise RangeError("|M(x)| > x: summand magnitudes exceed 1")
        maxes = [m for _, m in self.running_abs_max]
        if any(b < a for a, b in zip(maxes, maxes[1:])):
            raise RangeError("running abs max must be nondecreasing")

    @property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.checkpoints], dtype=np.int64)

    @property
    def sums(self) -> np.ndarray:
        return np.array([m for _, m in self.checkpoints], dtype=np.int64)

    @property
    def abs_max(self) -> np.ndarray:
        return np.array([m for _, m in self.running_abs_max], dtype=np.int64)

    @property
    def final(self) -> tuple[int, int]:
        return self.checkpoints[-1]

    def to_csv(self, path) -> None:
        from .reporting import write_csv

        rows = [
            (x, m, a)
            for (x, m), (_, a) in zip(self.checkpoints, self.running_abs_max)
        ]
        write_csv(path, ["x", "M", "abs_max"], rows)


def stream_summatory(
    segment_values,
    limit: int,
    schedule: list[int] | None = None,
    label: str = "",
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> PartialSumSeries:
    """Stream exact partial sums of a segment-valued function to `limit`.

    Each window's values are computed and reduced together, by
    `_reduce_window`, to the prefix sum at each interval end between the
    checkpoints the window holds and the prefix's max and min on each
    interval.  Windows run in ascending order on the calling thread, which
    borrows one workspace (`workspace.borrowed`) for the whole stream: its
    buffers hold every window's temporaries and wait, on the free list, for
    the next stream.  Each window's O(checkpoint) summary is folded, in
    order, into the offset carried between windows and the running max of
    |M|, both Python ints.  So the series is exact at any limit and
    bit-identical for every segment size and `threads`.

    Args:
        segment_values: Callable (lo, hi) -> integer ndarray of f(lo..hi),
            of length hi - lo + 1, in a dtype that int64 holds.
        limit: Final x.
        schedule: Checkpoint xs (default geometric schedule), read by
            `as_schedule`: entries outside [1, limit] are dropped and the
            endpoint is always included.
        segment_size: Window length per sieve pass.
        threads: Accepted and validated, but changes neither the series
            nor its cost: a window's numpy calls hold the interpreter lock,
            so window threads would run the windows one after another.
            Only this function and `direct_summatory` take it, for the
            callers that name it: the benchmark's threads=2 path and its
            stream tracer.

    Raises:
        RangeError: limit, threads or segment_size is not an integer >= 1,
            or a schedule entry is not an integer.
        CapacityError: limit beyond MAX_STREAM_LIMIT.
        ShapeError: a window's values are not integers, or not one per
            integer of the window; names the window [lo, hi].
    """
    limit = _check_limit(limit)
    as_int(threads, "threads", minimum=1)
    if schedule is None:
        schedule = checkpoint_schedule(limit)
    sched = as_schedule(schedule, 1, limit)

    checkpoints: list[tuple[int, int]] = []
    running: list[tuple[int, int]] = []
    offset = 0
    best = 0
    with borrowed():
        for lo, hi in segments(1, limit, segment_size):
            vals = np.asarray(segment_values(lo, hi))
            integer = vals.dtype.kind in "iu" and np.can_cast(vals.dtype, np.int64)
            if not integer or vals.shape != (hi - lo + 1,):
                raise ShapeError(
                    f"window [{lo}, {hi}] has {vals.dtype} values of shape {vals.shape}, "
                    f"not {hi - lo + 1} integers within int64"
                )
            xs = sched[bisect_left(sched, lo) : bisect_right(sched, hi)]
            # interval j ends at ends[j]; all but possibly the last end at a checkpoint
            ends = [x - lo for x in xs]
            if not ends or ends[-1] != hi - lo:
                ends.append(hi - lo)
            at, tops, bottoms = _reduce_window(vals, ends, _block_length(len(vals)))
            for x, m, top, bottom in zip(xs, at, tops, bottoms):
                best = max(best, abs(offset + top), abs(offset + bottom))
                checkpoints.append((x, offset + m))
                running.append((x, best))
            best = max(best, abs(offset + tops[-1]), abs(offset + bottoms[-1]))
            offset += at[-1]

    return PartialSumSeries(label=label, checkpoints=checkpoints, running_abs_max=running)


# Longest block of the blocked window reduction: no sum of 64 one-byte
# values leaves int16.
BLOCK = 64


def _block_length(n: int) -> int:
    """Block length for an n-value window: about sqrt(n) / 8, at most BLOCK.

    A window costs one numpy call per value of the block length and a few
    operations per block; this keeps both small.  2^20 values take BLOCK,
    and windows under 256 values take 1, a plain prefix sum.
    """
    return max(1, min(BLOCK, isqrt(n) // 8))


def _reduce_window(
    vals: np.ndarray, ends: list[int], block: int
) -> tuple[list[int], list[int], list[int]]:
    """Prefix sums of `vals` at `ends`, and the prefix's max and min on each
    interval (ends[j-1], ends[j]], the first from 0; `ends` ascend and end
    at len(vals) - 1.

    The window is viewed as blocks of `block` values, zero-padded at its
    tail and transposed once, so block - 1 vectorised adds across all
    blocks give every block's own prefix sums, and one pass each their max
    and min.  One-byte values take one min and one max per window: when
    max|v| * block <= 127 the prefixes are int8 (always so for values in
    {-1, 0, 1}), otherwise int16 (`block` <= BLOCK); wider values take int64.
    A block holding an interval end before its last value is split.  The
    unsplit blocks enter the interval reductions as one value each, their
    max or min plus the offset ahead of them.  Each interval meets a split
    block at most at its first and its last block, and these pieces tile
    the split blocks' prefixes in order, so one more reduction over those
    prefixes gives every piece.  All work is O(len(vals)) for any `ends`.
    Offsets between blocks are int64; the results are Python ints.  The
    prefix table and the per-block arrays are the bound workspace's, if
    any (see `workspace.scratch`), and their sizes depend on len(vals)
    alone.
    """
    n = len(vals)
    nb = -(-n // block)
    full = n // block
    dtype = np.int64
    if vals.dtype.itemsize == 1:
        # a block's prefixes stay within block * max|v|
        dtype = np.int8 if max(-int(vals.min()), int(vals.max())) * block <= 127 else np.int16
    # prefix[i, b]: the sum of block b's first i + 1 values
    prefix = scratch(TABLE, (block, nb), dtype)
    # transposed a few blocks at a time, so that each chunk's source stays in cache
    step = max(1, _TRANSPOSE_BYTES // (block * vals.itemsize))
    for a in range(0, full, step):
        b = min(a + step, full)
        prefix[:, a:b] = vals[a * block : b * block].reshape(b - a, block).T
    if full < nb:
        prefix[:, full] = 0
        prefix[: n - full * block, full] = vals[full * block :]
    for i in range(1, block):
        np.add(prefix[i - 1], prefix[i], out=prefix[i])
    before = scratch("reduce.before", nb, np.int64)  # sum ahead of each block
    np.cumsum(prefix[-1], dtype=np.int64, out=before)
    np.subtract(before, prefix[-1], out=before)

    e = np.asarray(ends)
    starts = np.concatenate(([0], e[:-1] + 1))
    eb, sb = e // block, starts // block
    split = scratch("reduce.split", nb, bool)
    split.fill(False)
    split[eb[e % block != block - 1]] = True
    parts = np.flatnonzero(split)
    # pieces: interval j's part of its first block, then of its last, where split
    pieces = np.stack((split[sb], split[eb] & (eb != sb)), axis=1)
    at = np.stack((np.searchsorted(parts, sb) * block + starts % block,
                   np.searchsorted(parts, eb) * block), axis=1)[pieces]
    owner = np.nonzero(pieces)[0]
    cells = (prefix[:, parts].T + before[parts, None]).ravel()
    edge = scratch("reduce.edge", nb, np.int64)
    extreme = scratch("reduce.extreme", nb, dtype)
    result = [(before[eb] + prefix[e % block, eb]).tolist()]
    for ufunc, sentinel in ((np.maximum, _INT64.min), (np.minimum, _INT64.max)):
        # each block's extreme; a split block's is left to its pieces
        np.add(before, ufunc.reduce(prefix, axis=0, out=extreme), out=edge)
        edge[parts] = sentinel
        # interval j's unsplit blocks lie in [sb[j], sb[j + 1])
        per_interval = ufunc.reduceat(edge, sb)
        ufunc.at(per_interval, owner, ufunc.reduceat(cells, at))
        result.append(per_interval.tolist())
    return tuple(result)


_INT64 = np.iinfo(np.int64)
# Bytes of a window the reduction transposes at once: a chunk's source
# stays in a 32 KiB L1 data cache.
_TRANSPOSE_BYTES = 2**15


def direct_summatory(
    rule: MultiplicativeRule,
    limit: int,
    schedule: list[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> PartialSumSeries:
    """Exact M_f for a multiplicative rule, by streaming segmented sieving;
    `threads` is validated and changes nothing, as in `stream_summatory`."""
    primes = sieve_primes(isqrt(_check_limit(limit)))

    def seg(lo: int, hi: int) -> np.ndarray:
        return rule.segment_values(lo, hi, primes=primes, out=scratch(VALUES, hi - lo + 1, np.int8))

    return stream_summatory(
        seg, limit, schedule=schedule, label=rule.label,
        segment_size=segment_size, threads=threads,
    )


def summatory_mu_chi(
    chi: RealCharacter,
    limit: int,
    schedule: list[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> PartialSumSeries:
    """Exact partial sums of mu(n) * chi(n)."""
    primes = sieve_primes(isqrt(_check_limit(limit)))

    def seg(lo: int, hi: int) -> np.ndarray:
        mu = liouville_kfree_segment(lo, hi, 2, primes, out=scratch(VALUES, hi - lo + 1, np.int8))
        return np.multiply(mu, chi.values(lo, hi), out=mu)

    return stream_summatory(
        seg, limit, schedule=schedule, label=f"mu*{chi.label}", segment_size=segment_size
    )


def mertens(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """M_mu(limit), exactly, via the segmented Mobius sieve.  A window's first
    64 floor(n / 64) values are added as 64 rows in int8, whose column sums
    lie within +-64; those sums and the < 64 left over are added in int64."""
    limit = _check_limit(limit)
    primes = sieve_primes(isqrt(limit))
    total = 0
    with borrowed():
        for lo, hi in segments(1, limit, segment_size):
            mu = liouville_kfree_segment(lo, hi, 2, primes, out=scratch(VALUES, hi - lo + 1, np.int8))
            body = len(mu) // 64 * 64
            columns = np.add.reduce(mu[:body].reshape(64, -1), axis=0, dtype=np.int8)
            total += int(columns.sum(dtype=np.int64)) + int(mu[body:].sum(dtype=np.int64))
    return total


def mertens_recursive(limit: int) -> int:
    """Independent Mertens path: M(y) = 1 - sum_{d=2}^{y} M(y // d), filled
    bottom-up over the floor set {x // a} of x = limit.

    mu is sieved window by window on [1, S], S = max(2 x^(2/3), 1024) by an
    exact cube root (capped at x), into `small`, the int32 table of M(v)
    for v <= S.  With A = x // (S + 1) (`top`), x // a > S exactly when
    a <= A, so big[a] = M(x // a) is filled for a = A down to 1.  For
    y = x // a and r = isqrt(y) the sum over d is three int64 reductions:

    - d <= A // a reads big[a d], one strided slice, as y // d = x // (a d);
    - A // a < d <= r reads small[y // d];
    - the d > r have y // d = v <= y // (r + 1), and each v is taken
      small[v] times for its d in (y // (v + 1), y // v]; at the last v
      that interval starts at y // (y // (r + 1) + 1) = r, so no d <= r
      is counted twice.

    The loop runs A ~ x^(1/3) / 2 times over O(sqrt(x / a)) array work, so
    a call costs O(x^(2/3)) time and 4 S bytes.  It shares no code with the
    streaming path beyond the Mobius segment sieve that seeds `small`.

    Raises:
        RangeError: limit is not an integer, or below 1.
        CapacityError: limit beyond MAX_RECURSIVE_MERTENS.
    """
    x = _check_limit(limit, MAX_RECURSIVE_MERTENS, "recursive Mertens")
    s = min(x, max(2 * introot(x * x, 3), 1024))
    # |M(v)| <= v <= S < 2^31, and every sum below is at most x * S < 2^63
    small = np.zeros(s + 1, dtype=np.int32)
    primes = sieve_primes(isqrt(s))
    for lo, hi in segments(1, s):
        np.cumsum(sieve_mobius_segment(lo, hi, primes).values, dtype=np.int32, out=small[lo : hi + 1])
        small[lo : hi + 1] += small[lo - 1]
    top = x // (s + 1)
    big = np.zeros(top + 1, dtype=np.int64)
    for a in range(top, 0, -1):
        y = x // a
        r = isqrt(y)
        q = top // a  # <= y // (S + 1) <= r, as y <= x < (S + 1)^2
        d = np.arange(q + 1, r + 1, dtype=np.int64)
        ends = y // np.arange(1, y // (r + 1) + 2, dtype=np.int64)  # ends[-1] = r
        big[a] = (
            1
            - big[2 * a : a * q + 1 : a].sum()
            - small[y // d].sum(dtype=np.int64)
            - np.dot(ends[:-1] - ends[1:], small[1 : len(ends)])
        )
    return int(big[1]) if top else int(small[x])


# -- oracles ------------------------------------------------------------

# A summatory oracle maps an int64 array of arguments y >= 0 to the int64
# array of M(y), of the same shape, exact on its domain, and raises
# OracleDomainError naming the first argument outside it.  A scalar argument
# gives a Python int.  A value side of the hyperbola identity is a support.
Summatory = Callable[[np.ndarray], np.ndarray]


def _arguments(y) -> np.ndarray:
    """y as int64 oracle arguments; OracleDomainError names the first one
    that is negative, not an integer, or past int64."""
    a = np.asarray(y)
    if a.dtype.kind not in "iu" or a.size and (a.min() < 0 or a.max() > MAX_LIMIT):
        for v in a.ravel().tolist():
            if not (isinstance(v, int) and 0 <= v <= MAX_LIMIT):
                raise OracleDomainError(f"M({v}) outside the oracle domain 0 <= y < 2^63")
    return a.astype(np.int64, copy=False)


def _result(out: np.ndarray):
    return int(out) if out.ndim == 0 else out


class PrefixSummatory:
    """M(y) = sum_{m <= y^(1/k)} values[m-1], from prefix sums of `values`.

    At k = 1 this is the plain prefix sum of a value table.  At k >= 2 it
    is the summatory function of an h supported on k-th powers with
    h(m^k) = values[m-1], which reduces a y-length sum to a y^(1/k)-length
    one.  The root floor(y^(1/k)) is the number of m with m^k <= y, read by
    searchsorted from the exact int64 table of m^k.  The table stops at
    m = len(values) + 1, the first root past the prefix, or at
    introot(2^63 - 1, k), so no m^k wraps.

    Raises:
        CapacityError: a prefix sum of `values` leaves int64.
    """

    def __init__(self, values: np.ndarray, k: int = 1):
        values = np.asarray(values)
        n = len(values)
        if n and n * max(-int(values.min()), int(values.max())) > MAX_LIMIT:
            for i, s in enumerate(accumulate(values.tolist()), 1):
                if not -MAX_LIMIT - 1 <= s <= MAX_LIMIT:
                    raise CapacityError(f"prefix sum to {i} is {s}, beyond int64")
        self.k = k
        self._cum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
        top = min(n + 1, introot(MAX_LIMIT, k))
        self._powers = np.arange(1, top + 1, dtype=np.int64) ** k

    def __call__(self, y):
        args = _arguments(y)
        r = np.searchsorted(self._powers, args, side="right")
        beyond = r >= len(self._cum)
        if beyond.any():
            raise OracleDomainError(
                f"M({args[beyond][0]}) needs the prefix past {len(self._cum) - 1}"
            )
        return _result(self._cum[r])


# SmoothSummatory evaluates its (terms x arguments) table in chunks of at
# most this many entries, so a call allocates a few MiB at any size.
_SMOOTH_CHUNK = 2**18


class SmoothSummatory:
    """M_g(y) for 0 <= y <= limit, without streaming g: g is completely
    multiplicative and equals its base character chi off a finite prime
    set S.

    g = chi * e with e multiplicative, e(p^r) = g(p)^(r-1) (g(p) - chi(p)),
    supported on the S-smooth n (`convolution.smooth_terms`), so

        M_g(y) = sum_{n S-smooth, n <= y} e(n) M_chi(y // n),

    each M_chi(y // n) a lookup in one period of chi's prefix sums.  A call
    reads the terms n <= max y of a block of arguments and sums the table
    of e(n) M_chi(y // n) chunk by chunk.  sum |e| * max |M_chi| bounds
    every partial sum and is checked below 2^63 at construction, so the
    int64 accumulation never wraps.

    Raises:
        ShapeError: g is truncated or has a constant base.
        CapacityError: limit past int64, or the bound above past 2^63 - 1.
    """

    def __init__(self, g: MultiplicativeRule, limit: int):
        if limit > MAX_LIMIT:
            raise CapacityError(f"limit {limit} beyond the int64 oracle domain {MAX_LIMIT}")
        self.limit = limit
        self._n, self._e = smooth_terms(g, limit, lambda gp, cp, r: gp ** (r - 1) * (gp - cp))
        self._chi = g.base
        bound = int(np.abs(self._e).sum()) * self._chi.max_abs_partial_sum()
        if bound > MAX_LIMIT:
            raise CapacityError(f"sum |e| * max |M_chi| = {bound} for '{g.label}' passes int64")

    def __call__(self, y):
        args = _arguments(y)
        flat = args.ravel()
        past = flat > self.limit
        if past.any():
            raise OracleDomainError(f"M({flat[past][0]}) past the S-smooth terms up to {self.limit}")
        out = np.zeros(flat.size, dtype=np.int64)
        step = max(1, _SMOOTH_CHUNK // max(len(self._n), 1))
        for i in range(0, flat.size, step):
            ys = flat[i : i + step]
            # terms past every argument would read M_chi(0) = 0
            top = np.searchsorted(self._n, ys.max(), side="right")
            width = max(1, _SMOOTH_CHUNK // len(ys))
            for j in range(0, top, width):
                n, e = self._n[j : min(j + width, top)], self._e[j : min(j + width, top)]
                out[i : i + step] += e @ self._chi.partial_sum(ys // n[:, None])
        return _result(out.reshape(args.shape))


def streamed_summatory_map(
    rule: MultiplicativeRule,
    args: list[int],
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> dict[int, int]:
    """{y: M_f(y)} for every requested argument y >= 0, exactly, from one
    streaming pass; each argument is read by as_int."""
    args = sorted({a for a in (as_int(a, "argument") for a in args) if a >= 0})
    out: dict[int, int] = {a: 0 for a in args if a == 0}
    pos = [a for a in args if a >= 1]
    if pos:
        series = direct_summatory(rule, pos[-1], schedule=pos, segment_size=segment_size)
        out.update(dict(series.checkpoints))
    return out


# -- hyperbola method ----------------------------------------------------


@dataclass(frozen=True)
class HyperbolaSplit:
    """A split U*V = x, held as the exact integer floors of U and V."""

    x: int
    u_floor: int
    v_floor: int

    def __post_init__(self) -> None:
        for name in ("x", "u_floor", "v_floor"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"split {name}", minimum=1))
        if self.u_floor * self.v_floor > self.x:
            raise RangeError("floor(U) * floor(V) exceeds x: split invalid")
        if (self.u_floor + 1) * (self.v_floor + 1) <= self.x:
            raise RangeError("split leaves hyperbola region uncovered: U*V < x")


def explicit_split(x: int, u: float, v: float) -> HyperbolaSplit:
    """Split from user-provided real U, V with U*V = x (validated via floors)."""
    try:
        u_floor, v_floor = math.floor(u), math.floor(v)
    except (TypeError, ValueError, OverflowError):
        raise RangeError(f"split U = {u!r}, V = {v!r} needs finite real U and V") from None
    return HyperbolaSplit(x=x, u_floor=u_floor, v_floor=v_floor)


def sqrt_split(x: int) -> HyperbolaSplit:
    r = isqrt(as_int(x, "split x", minimum=1))
    return HyperbolaSplit(x=x, u_floor=r, v_floor=r)


def optimal_split(x: int, k: int) -> HyperbolaSplit:
    """The split U = x^(2k/(2k+1)), V = x^(1/(2k+1)), floors taken exactly.

    This balances the two short sums when the h-side factor is supported
    on k-th powers; both floors come from exact integer root extraction,
    never floating-point powers.
    """
    x, k = as_int(x, "split x", minimum=1), as_int(k, "split order k", minimum=2)
    m = 2 * k + 1
    return HyperbolaSplit(x=x, u_floor=introot(x ** (2 * k), m), v_floor=introot(x, m))


# hyperbola_sum reads each support a block at a time, so the index,
# argument and oracle arrays of a side stay a few MiB at any floor.
_VALUE_BLOCK = 2**16


def hyperbola_sum(
    h_summatory: Summatory,
    g_summatory: Summatory,
    h_support: tuple[np.ndarray, np.ndarray],
    g_support: tuple[np.ndarray, np.ndarray],
    split: HyperbolaSplit,
) -> int:
    """Exact sum_{n<=x} (h*g)(n) from the two short sums and the correction.

    Each side is its function's support (n, values): ascending integers
    n >= 1, one value each, zero at every other n.  Per block of its terms
    n <= floor a side makes one oracle call on x // n at the nonzero values
    and one dot product, int64 only while count * max|v| * max|M| < 2^63.

    Raises:
        ShapeError: a support is not ascending int64 n >= 1, one value each.
        OracleDomainError: an oracle is queried outside its domain.
        CapacityError: x beyond int64.
    """
    x = split.x
    if x > MAX_LIMIT:
        raise CapacityError(f"x = {x} beyond the int64 oracle domain {MAX_LIMIT}")
    total = 0
    for name, (n, values), floor, other in (
        ("h", h_support, split.u_floor, g_summatory),
        ("g", g_support, split.v_floor, h_summatory),
    ):
        n, values = np.asarray(n), np.asarray(values)
        if n.ndim != 1 or n.shape != values.shape or not all(
                np.can_cast(a.dtype, np.int64) for a in (n, values)):
            raise ShapeError(f"{name} support needs one int64 value per int64 n, got n "
                             f"{n.dtype}{n.shape} and values {values.dtype}{values.shape}")
        n = n.astype(np.int64, copy=False)
        bad = [0] if len(n) and n[0] < 1 else np.flatnonzero(n[1:] <= n[:-1]) + 1
        if len(bad):  # n[0] < 1, or n[i] <= n[i - 1]
            raise ShapeError(f"{name} support n[{bad[0]}] = {n[bad[0]]} is below 1 or not ascending")
        stop = np.searchsorted(n, floor, side="right")
        for start in range(0, stop, _VALUE_BLOCK):
            keep = np.flatnonzero(values[start : min(start + _VALUE_BLOCK, stop)]) + start
            if len(keep):
                total += _exact_dot(values[keep], other(x // n[keep]))
    total -= int(g_summatory(split.v_floor)) * int(h_summatory(split.u_floor))
    return total


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """sum(a * b) over two nonempty integer arrays, exactly."""
    a, b = a.astype(np.int64, copy=False), np.asarray(b, dtype=np.int64)
    bound = len(a) * max(-int(a.min()), int(a.max())) * max(-int(b.min()), int(b.max()))
    if bound <= MAX_LIMIT:  # bounds every partial sum of the int64 dot
        return int(np.dot(a, b))
    return sum(map(mul, a.tolist(), b.tolist()))


def kfree_hyperbola_sum(g: MultiplicativeRule, k: int, split: HyperbolaSplit) -> int:
    """M_f(x) for f = [n k-free] * g by the hyperbola identity over f = g * h.

    g must be completely multiplicative (untruncated) with a character
    base; h is supported on k-th powers, h(m^k) = w(m) = mu(m) g(m)^k.  One
    sieve of w over m <= x^(1/k) gives both h's support (m^k, w(m)) for
    m^k <= U and its summatory oracle, and the g side pairs g's values on
    [1, V] with the S-smooth oracle of g, so the route streams nothing.

    Raises:
        ShapeError: g is truncated or has a constant base.
        RangeError: k is not an integer >= 2.
        RangeError, CapacityError: x below 1 or past MAX_STREAM_LIMIT.
    """
    k = as_int(k, "k-free order k", minimum=2)
    x, uf, vf = split.x, split.u_floor, split.v_floor
    _check_limit(x)  # before the dense g side of length V <= x is built
    # M_g is read at V and at x // m^k for the nonzero h(m^k), m^k <= U;
    # m = 1 gives the largest argument, x
    g_summatory = SmoothSummatory(g, x)
    w = kfree_factor_at_powers(k, g, introot(x, k))
    m = np.arange(1, introot(uf, k) + 1, dtype=np.int64)
    g_support = (np.arange(1, vf + 1, dtype=np.int64), g.segment_values(1, vf))
    return hyperbola_sum(PrefixSummatory(w, k=k), g_summatory, (m**k, w[: len(m)]), g_support, split)
