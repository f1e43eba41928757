"""Segmented sieves producing exact arithmetic-function tables.

Everything here is exact integer work: primes, smallest prime factors,
the Mobius function mu(n), and the k-free indicator (1 when no prime
power p^k divides n, else 0).  Segments of any [lo, hi] window can be
sieved independently using only the primes up to sqrt(hi), so tables for
very large ranges never have to be materialised at once.

Values are stored as signed bytes; {-1, 0, 1} covers every function this
module produces, and the convolution machinery widens to 64-bit integers
where products can grow.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import CapacityError, RangeError

# Exact-arithmetic contract: indices must stay within the signed 64-bit
# world numpy can address without silent wraparound.
MAX_LIMIT = 2**63 - 1

# Beyond k = 60, p^k exceeds 2^60 for every prime, so the k-free
# indicator is identically 1 on any supported range.
MAX_KFREE_ORDER = 60

DEFAULT_SEGMENT_SIZE = 2**20


def _check_range(lo: int, hi: int) -> None:
    if lo < 1 or hi < lo:
        raise RangeError(f"invalid range [{lo}, {hi}]: need 1 <= lo <= hi")
    if hi > MAX_LIMIT:
        raise RangeError(f"upper bound {hi} exceeds the 2^63-1 exact-arithmetic cap")


@dataclass(frozen=True)
class DenseValueTable:
    """Exact values f(lo..hi) of an arithmetic function, densely stored.

    Attributes:
        lo: First index covered (>= 1).
        hi: Last index covered (>= lo).
        values: Array of length hi-lo+1; values[n-lo] == f(n).
        label: Human-readable name of the function.
    """

    lo: int
    hi: int
    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        _check_range(self.lo, self.hi)
        if len(self.values) != self.hi - self.lo + 1:
            raise RangeError(
                f"table '{self.label}': {len(self.values)} values for range "
                f"[{self.lo}, {self.hi}]"
            )
        self.values.setflags(write=False)  # immutable after construction

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def value_at(self, n: int) -> int:
        if n < self.lo or n > self.hi:
            raise RangeError(f"n={n} outside table range [{self.lo}, {self.hi}]")
        return int(self.values[n - self.lo])

    def to_csv(self, path) -> None:
        """Debug dump with columns n,value."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "value"])
            for i, v in enumerate(self.values):
                writer.writerow([self.lo + i, int(v)])


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table: spf[n] for 1 <= n <= limit, spf[1] = 1."""

    limit: int
    spf: np.ndarray = field(repr=False)

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorisation of n as ordered (p, exponent) pairs."""
        if n < 1 or n > self.limit:
            raise RangeError(f"n={n} outside SPF table limit {self.limit}")
        out: list[tuple[int, int]] = []
        while n > 1:
            p = int(self.spf[n])
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            out.append((p, r))
        return out


def is_prime(n: int) -> bool:
    """Primality by trial division; for validating single indices."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending.  limit < 2 yields an empty array."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    if limit > MAX_LIMIT:
        raise RangeError(f"limit {limit} exceeds the 2^63-1 cap")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def sieve_mobius_segment(lo: int, hi: int, primes: np.ndarray | None = None) -> DenseValueTable:
    """Exact mu(n) for n in [lo, hi], sieved segment-locally.

    Needs only the primes up to sqrt(hi).  For each such prime the sign is
    flipped on its multiples and the running product of detected prime
    factors tracked; entries whose product falls short of n carry exactly
    one extra prime factor above sqrt(hi), flipping the sign once more.

    Args:
        lo, hi: Segment bounds, 1 <= lo <= hi <= 2^63-1.
        primes: Optional precomputed primes covering sqrt(hi).

    Returns:
        DenseValueTable of mu over [lo, hi], values in {-1, 0, 1}.
    """
    _check_range(lo, hi)
    size = hi - lo + 1
    root = isqrt(hi)
    if primes is None:
        primes = sieve_primes(root)
    mu = np.ones(size, dtype=np.int8)
    prod = np.ones(size, dtype=np.int64)
    for p in primes:
        p = int(p)
        if p > root:
            break
        start = ((lo + p - 1) // p) * p
        sel = slice(start - lo, size, p)
        np.negative(mu[sel], out=mu[sel])
        prod[sel] *= p
        p2 = p * p
        if p2 <= hi:
            start2 = ((lo + p2 - 1) // p2) * p2
            mu[start2 - lo :: p2] = 0
    leftover = prod != np.arange(lo, hi + 1, dtype=np.int64)
    np.negative(mu, where=leftover, out=mu)
    return DenseValueTable(lo, hi, mu, label="mu")


def sieve_kfree_segment(lo: int, hi: int, k: int, primes: np.ndarray | None = None) -> DenseValueTable:
    """Indicator of k-free n (no prime power p^k divides n) over [lo, hi]."""
    if not 2 <= k <= MAX_KFREE_ORDER:
        raise RangeError(f"k={k} outside supported order range [2, {MAX_KFREE_ORDER}]")
    _check_range(lo, hi)
    size = hi - lo + 1
    vals = np.ones(size, dtype=np.int8)
    kroot = _introot(hi, k)
    if primes is None:
        primes = sieve_primes(kroot)
    for p in primes:
        p = int(p)
        pk = p**k
        if pk > hi:
            break
        start = ((lo + pk - 1) // pk) * pk
        vals[start - lo :: pk] = 0
    return DenseValueTable(lo, hi, vals, label=f"mu_{k}^2")


def build_spf(limit: int, max_bytes: int = 2**31) -> SpfTable:
    """Smallest-prime-factor table for 1..limit.

    Raises CapacityError when the table would exceed max_bytes (default
    2 GiB); the dtype is the narrowest signed integer covering limit.
    """
    if limit < 1:
        raise RangeError(f"limit {limit} must be >= 1")
    dtype = np.int32 if limit < 2**31 else np.int64
    need = (limit + 1) * np.dtype(dtype).itemsize
    if need > max_bytes:
        raise CapacityError(
            f"SPF table for limit {limit} needs {need} bytes, budget is {max_bytes}"
        )
    spf = np.zeros(limit + 1, dtype=dtype)
    if limit >= 1:
        spf[1] = 1
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            window = spf[p * p :: p]
            window[window == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    return SpfTable(limit=limit, spf=spf)


def segments(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
    """Yield (a, b) windows partitioning [lo, hi] in ascending order."""
    if segment_size < 1:
        raise RangeError("segment_size must be positive")
    a = lo
    while a <= hi:
        b = min(a + segment_size - 1, hi)
        yield a, b
        a = b + 1


def _introot(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, by exact binary search."""
    if n < 0 or k < 1:
        raise RangeError(f"introot undefined for n={n}, k={k}")
    if n < 2 or k == 1:
        return n
    lo_r, hi_r = 1, 1
    while hi_r**k <= n:
        hi_r *= 2
    while lo_r < hi_r - 1:
        mid = (lo_r + hi_r) // 2
        if mid**k <= n:
            lo_r = mid
        else:
            hi_r = mid
    return lo_r


def introot(n: int, k: int) -> int:
    """Public exact integer k-th root (floor)."""
    return _introot(n, k)


def is_perfect_power(n: int, k: int) -> tuple[bool, int]:
    """Whether n = m**k for an integer m; returns (flag, floor root)."""
    r = _introot(n, k)
    return r**k == n, r
