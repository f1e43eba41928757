"""Exact partial sums M_f(x) = sum_{n<=x} f(n) at scale.

Sums are streamed over sieve segments so the full value table for x is
never materialised; every accumulator is a 64-bit (or Python) integer
and no floating point enters any sum.  A checkpoint schedule records
(x, M(x)) pairs along the way together with the exact running maximum
of |M(t)| over all integers t <= x.

The Dirichlet hyperbola identity

    sum_{n<=x} (h*g)(n) = sum_{n<=U} h(n) M_g(x/n)
                        + sum_{n<=V} g(n) M_h(x/n) - M_g(V) M_h(U)

with U*V = x is implemented over exact summatory/value oracles, with all
bounds discretised to integer floors.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .characters import RealCharacter
from .errors import CapacityError, OracleDomainError, RangeError, ShapeError
from .rules import MultiplicativeRule
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    DenseValueTable,
    introot,
    segments,
    sieve_mobius_segment,
    sieve_primes,
)

# Streaming budget: ranges past this need more than the intended memory/time
# envelope of the workbench.
MAX_STREAM_LIMIT = 4 * 10**9


def checkpoint_schedule(limit: int, ratio: float = 1.05, start: int = 10) -> list[int]:
    """Geometric checkpoints x_{i+1} = ceil(ratio * x_i) from `start`,
    plus every power of 10 and the endpoint itself."""
    if limit < 1:
        raise RangeError("schedule limit must be >= 1")
    if ratio <= 1.0:
        raise RangeError("schedule ratio must exceed 1")
    pts = {limit}
    x = start
    while x <= limit:
        pts.add(x)
        nxt = math.ceil(ratio * x)
        x = nxt if nxt > x else x + 1
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

    Each window is reduced over the intervals between the checkpoints it
    holds, not element by element: one local prefix sum, in the narrowest
    dtype that no sum of the window's values can overflow (int32 for int8
    windows shorter than 2^24 values), then the prefix's max and min on each
    interval.  The offset carried between windows and the running max of
    |M| are Python ints, so they stay exact at any limit.

    Args:
        segment_values: Callable (lo, hi) -> int8 ndarray of f(lo..hi).
        limit: Final x.
        schedule: Checkpoint xs (default geometric schedule); the endpoint
            is always included.
        segment_size: Window length per sieve pass.
        threads: Segment values may be computed concurrently, by at most
            as many threads as this process may use CPUs; the reduction
            always runs in ascending segment order, so results are
            bit-identical for every thread count.

    Raises:
        RangeError: limit < 1, or threads < 1.
        CapacityError: limit beyond MAX_STREAM_LIMIT.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    if limit > MAX_STREAM_LIMIT:
        raise CapacityError(f"limit {limit} beyond streaming budget {MAX_STREAM_LIMIT}")
    if threads < 1:
        raise RangeError(f"threads must be >= 1, got {threads}")
    threads = min(threads, _usable_cpus())
    if schedule is None:
        schedule = checkpoint_schedule(limit)
    sched = sorted({x for x in schedule if 1 <= x <= limit} | {limit})

    windows = list(segments(1, limit, segment_size))
    checkpoints: list[tuple[int, int]] = []
    running: list[tuple[int, int]] = []
    offset = 0
    best = 0
    si = 0
    # one prefix buffer serves every window: a fresh one per window faults
    # its pages in again whenever malloc hands the freed block back to the OS
    prefix_buf = np.empty(0, dtype=np.int32)

    def reduce_window(lo: int, vals: np.ndarray) -> None:
        nonlocal offset, best, si, prefix_buf
        dtype = _prefix_dtype(len(vals), vals.dtype)
        if prefix_buf.dtype != dtype or len(prefix_buf) < len(vals):
            prefix_buf = np.empty(len(vals), dtype=dtype)
        prefix = np.cumsum(vals, dtype=dtype, out=prefix_buf[: len(vals)])
        hi = lo + len(vals) - 1
        sj = bisect_right(sched, hi, si)
        # interval j ends at ends[j]; all but possibly the last end at a checkpoint
        ends = [x - lo for x in sched[si:sj]]
        if not ends or ends[-1] != len(vals) - 1:
            ends.append(len(vals) - 1)
        starts = [0] + [e + 1 for e in ends[:-1]]
        tops = np.maximum.reduceat(prefix, starts).tolist()
        bottoms = np.minimum.reduceat(prefix, starts).tolist()
        at = prefix[ends].tolist()
        for x, top, bottom, m in zip(sched[si:sj], tops, bottoms, at):
            best = max(best, abs(offset + top), abs(offset + bottom))
            checkpoints.append((x, offset + m))
            running.append((x, best))
        best = max(best, abs(offset + tops[-1]), abs(offset + bottoms[-1]))
        offset += at[-1]
        si = sj

    if threads == 1:
        for lo, hi in windows:
            reduce_window(lo, segment_values(lo, hi))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for batch_start in range(0, len(windows), threads):
                batch = windows[batch_start : batch_start + threads]
                futures = [pool.submit(segment_values, lo, hi) for lo, hi in batch]
                for (lo, _), fut in zip(batch, futures):
                    reduce_window(lo, fut.result())

    return PartialSumSeries(label=label, checkpoints=checkpoints, running_abs_max=running)


def _prefix_dtype(length: int, dtype: np.dtype) -> type:
    """int32 when no prefix sum of `length` values of `dtype` can leave it."""
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        if length * max(-info.min, info.max) <= np.iinfo(np.int32).max:
            return np.int32
    return np.int64


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def direct_summatory(
    rule: MultiplicativeRule,
    limit: int,
    schedule: list[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> PartialSumSeries:
    """Exact M_f for a multiplicative rule, by streaming segmented sieving."""
    primes = sieve_primes(isqrt(limit))

    def seg(lo: int, hi: int) -> np.ndarray:
        return rule.segment_values(lo, hi, primes=primes)

    return stream_summatory(
        seg, limit, schedule=schedule, label=rule.label,
        segment_size=segment_size, threads=threads,
    )


def summatory_mu_chi(
    chi: RealCharacter,
    limit: int,
    schedule: list[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> PartialSumSeries:
    """Exact partial sums of mu(n) * chi(n)."""
    primes = sieve_primes(isqrt(limit))

    def seg(lo: int, hi: int) -> np.ndarray:
        mu = sieve_mobius_segment(lo, hi, primes=primes).values
        return (mu * chi.values(lo, hi)).astype(np.int8)

    return stream_summatory(
        seg, limit, schedule=schedule, label=f"mu*{chi.label}",
        segment_size=segment_size, threads=threads,
    )


def mertens(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """M_mu(limit), exactly, via the segmented Mobius sieve."""
    if limit < 1:
        raise RangeError("limit must be >= 1")
    if limit > MAX_STREAM_LIMIT:
        raise CapacityError(f"limit {limit} beyond streaming budget {MAX_STREAM_LIMIT}")
    primes = sieve_primes(isqrt(limit))
    total = 0
    for lo, hi in segments(1, limit, segment_size):
        total += int(
            np.sum(sieve_mobius_segment(lo, hi, primes=primes).values, dtype=np.int64)
        )
    return total


def mertens_recursive(limit: int) -> int:
    """Independent Mertens path: M(x) = 1 - sum_{d=2}^{x} M(floor(x/d)).

    Memoised over the O(sqrt x) distinct floor values, seeded by a dense
    sieved prefix; shares no code with the streaming path beyond the raw
    Mobius segment sieve used for seeding.
    """
    if limit < 1:
        raise RangeError("limit must be >= 1")
    if limit > 10**9:
        raise CapacityError("recursive Mertens budget is 10^9")
    seed = min(limit, max(2 * int(limit ** (2 / 3)), 1024))
    mu = sieve_mobius_segment(1, seed).values
    small = np.concatenate(([0], np.cumsum(mu, dtype=np.int64)))
    memo: dict[int, int] = {}

    def m(x: int) -> int:
        if x <= seed:
            return int(small[x])
        if x in memo:
            return memo[x]
        total = 1
        d = 2
        while d <= x:
            v = x // d
            d2 = x // v
            total -= (d2 - d + 1) * m(v)
            d = d2 + 1
        memo[x] = total
        return total

    return m(limit)


# -- oracles ------------------------------------------------------------


class TableValues:
    """Value oracle n -> f(n) backed by a dense prefix table."""

    def __init__(self, table: DenseValueTable):
        if table.lo != 1:
            raise ShapeError("value oracle requires a prefix table starting at 1")
        self.limit = table.hi
        self.array = table.values

    def __call__(self, n: int) -> int:
        if n < 1 or n > self.limit:
            raise OracleDomainError(f"value oracle queried at n={n}, domain [1,{self.limit}]")
        return int(self.array[n - 1])

    def nonzero_upto(self, bound: int) -> np.ndarray:
        if bound > self.limit:
            raise OracleDomainError(f"value oracle bound {bound} beyond domain {self.limit}")
        return np.nonzero(self.array[:bound])[0] + 1


class PrefixSummatory:
    """Summatory oracle M(y) backed by dense prefix sums of a value table."""

    def __init__(self, table: DenseValueTable, label: str = ""):
        if table.lo != 1:
            raise ShapeError("summatory oracle requires a prefix table starting at 1")
        self.limit = table.hi
        self._cum = np.concatenate(
            ([0], np.cumsum(table.values, dtype=np.int64))
        )
        self.label = label or table.label

    def __call__(self, y: int) -> int:
        if y < 0 or y > self.limit:
            raise OracleDomainError(f"M({y}) outside oracle domain [0,{self.limit}]")
        return int(self._cum[y])


class CharacterSummatory:
    """O(1) exact M_chi(y) for a non-principal character: full periods cancel."""

    def __init__(self, chi: RealCharacter):
        self.chi = chi
        self.limit = MAX_STREAM_LIMIT

    def __call__(self, y: int) -> int:
        if y < 0:
            raise OracleDomainError("negative argument")
        return self.chi.partial_sum(y)


class KthPowerSummatory:
    """M_h(y) for h supported on k-th powers: sum over m <= y^(1/k).

    inner_cum[m] must hold sum_{j<=m} h(j^k); the oracle reduces a
    y-length sum to a y^(1/k)-length one.
    """

    def __init__(self, k: int, inner_values: np.ndarray, label: str = ""):
        self.k = k
        self._cum = np.concatenate(([0], np.cumsum(inner_values, dtype=np.int64)))
        self.limit = (len(inner_values)) ** k if len(inner_values) else 0
        self.label = label

    def __call__(self, y: int) -> int:
        if y < 0:
            raise OracleDomainError("negative argument")
        r = introot(y, self.k)
        if r >= len(self._cum):
            raise OracleDomainError(
                f"M({y}) needs inner prefix to {r}, have {len(self._cum) - 1}"
            )
        return int(self._cum[r])


class MappedSummatory:
    """Summatory oracle over a precomputed {argument: M} map."""

    def __init__(self, mapping: dict[int, int], label: str = ""):
        self.mapping = mapping
        self.label = label

    def __call__(self, y: int) -> int:
        try:
            return self.mapping[y]
        except KeyError:
            raise OracleDomainError(f"M({y}) not among precomputed arguments") from None


def streamed_summatory_map(
    rule: MultiplicativeRule,
    args: list[int],
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> MappedSummatory:
    """Exact M_f at every requested argument, in one streaming pass."""
    args = sorted(set(a for a in args if a >= 0))
    out: dict[int, int] = {a: 0 for a in args if a == 0}
    pos = [a for a in args if a >= 1]
    if pos:
        series = direct_summatory(
            rule, pos[-1], schedule=pos, segment_size=segment_size, threads=threads
        )
        out.update(dict(series.checkpoints))
    return MappedSummatory(out, label=rule.label)


# -- hyperbola method ----------------------------------------------------


@dataclass(frozen=True)
class HyperbolaSplit:
    """A split U*V = x with exact integer floors for the two short sums."""

    x: int
    u: float
    v: float
    u_floor: int
    v_floor: int

    def __post_init__(self) -> None:
        if self.x < 1 or self.u_floor < 1 or self.v_floor < 1:
            raise RangeError("split requires x, floor(U), floor(V) >= 1")
        if self.u_floor * self.v_floor > self.x:
            raise RangeError("floor(U) * floor(V) exceeds x: split invalid")
        if (self.u_floor + 1) * (self.v_floor + 1) <= self.x:
            raise RangeError("split leaves hyperbola region uncovered: U*V < x")


def explicit_split(x: int, u: float, v: float) -> HyperbolaSplit:
    """Split from user-provided real U, V with U*V = x (validated via floors)."""
    return HyperbolaSplit(x=x, u=u, v=v, u_floor=int(u), v_floor=int(v))


def sqrt_split(x: int) -> HyperbolaSplit:
    r = isqrt(x)
    return HyperbolaSplit(x=x, u=math.sqrt(x), v=math.sqrt(x), u_floor=r, v_floor=r)


def optimal_split(x: int, k: int) -> HyperbolaSplit:
    """The split U = x^(2k/(2k+1)), V = x^(1/(2k+1)), floors taken exactly.

    This balances the two short sums when the h-side factor is supported
    on k-th powers; both floors come from exact integer root extraction,
    never floating-point powers.
    """
    if x < 1 or k < 2:
        raise RangeError("optimal split needs x >= 1 and k >= 2")
    m = 2 * k + 1
    v_floor = introot(x, m)
    u_floor = introot(x ** (2 * k), m)
    return HyperbolaSplit(
        x=x, u=float(x) ** (2 * k / m), v=float(x) ** (1 / m),
        u_floor=u_floor, v_floor=v_floor,
    )


def hyperbola_sum(h_summatory, g_summatory, h_values, g_values, split: HyperbolaSplit) -> int:
    """Exact sum_{n<=x} (h*g)(n) from the two short sums and the correction.

    All four oracles must be exact on the floor arguments x // n they
    receive; a domain shortfall surfaces as OracleDomainError.
    """
    x, uf, vf = split.x, split.u_floor, split.v_floor
    total = 0
    if hasattr(h_values, "nonzero_upto"):
        h_idx = h_values.nonzero_upto(uf)
    else:
        h_idx = range(1, uf + 1)
    for n in h_idx:
        n = int(n)
        hv = h_values(n)
        if hv:
            total += hv * g_summatory(x // n)
    if hasattr(g_values, "nonzero_upto"):
        g_idx = g_values.nonzero_upto(vf)
    else:
        g_idx = range(1, vf + 1)
    for n in g_idx:
        n = int(n)
        gv = g_values(n)
        if gv:
            total += gv * h_summatory(x // n)
    total -= g_summatory(vf) * h_summatory(uf)
    return total
