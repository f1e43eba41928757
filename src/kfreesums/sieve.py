"""Segmented sieves producing exact arithmetic-function tables.

Everything here is exact integer work: primes, smallest prime factors,
the Liouville function restricted to the k-free integers (the Mobius
function mu(n) is its k = 2 case), and the k-free indicator (1 when no
prime power p^k divides n, else 0).  Segments of any [lo, hi] window can
be sieved independently using only the primes up to sqrt(hi), so tables
for very large ranges never have to be materialised at once.

Values are stored as signed bytes; {-1, 0, 1} covers every function this
module produces, and the convolution machinery widens to 64-bit integers
where products can grow.  The Liouville kernel packs its work into one
uint16 per integer: a byte counting the prime powers it sieved, whose
parity is the sign, and a byte summing their exact quarter-bit logarithms,
floor(4 log2 p).  Comparing that sum with a threshold fixed by n's bit
length flags the one prime factor above sqrt(hi) that a k-free n may
carry, a test that is exact for every hi up to 2^63-1, and the flag XORed
with the count gives the sign's parity (see liouville_kfree_segment).

The kernel's one body also sieves the odd n of a window alone, the
progression lo + 2i from an odd lo, for `mertens`, which needs mu only
there: p = 2 is skipped, the first powers of 3, ..., 13 come from the odd
half of the 30030-periodic pattern (period 15015), and the first odd
multiple of each p^j sits at index (p^j // 2 - lo // 2) mod p^j, whose
intermediates stay within int64, so no offset of an array of powers wraps.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import RangeError
from .workspace import MAX_SPF_BYTES, TABLE, check_bytes, output, scratch  # noqa: F401 (re-exported)

# Exact-arithmetic contract: indices must stay within the signed 64-bit
# world numpy can address without silent wraparound.
MAX_LIMIT = 2**63 - 1

DEFAULT_SEGMENT_SIZE = 2**20

# The Liouville kernel reads the first powers of these primes from one
# pattern of period _WHEEL instead of sieving them with strided passes.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = 2 * 3 * 5 * 7 * 11 * 13

# is_prime's Miller-Rabin bases, the first 13 primes, each with the least
# composite that is a strong probable prime to it and every base before it
# (OEIS A014233): the bases up to a decide every n below a's entry.
MILLER_RABIN_BASES = (
    (2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751), (11, 2152302898747),
    (13, 3474749660383), (17, 341550071728321), (19, 341550071728321),
    (23, 3825123056546413051), (29, 3825123056546413051), (31, 3825123056546413051),
    (37, 318665857834031151167461), (41, 3317044064679887385961981),
)
MILLER_RABIN_LIMIT = MILLER_RABIN_BASES[-1][1]


def as_int(value, what: str, error: type[Exception] = RangeError, minimum: int | None = None) -> int:
    """value as a Python int: a Python or numpy integer, not a bool, nothing
    non-integral, and at least `minimum` when one is given.  The error names
    the value."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise error(f"{what} {value!r} is not an integer")
    if minimum is not None and n < minimum:
        raise error(f"{what} must be >= {minimum}, got {n}")
    return n


def as_schedule(schedule, lo: int, hi: int) -> list[int]:
    """The distinct entries of `schedule` in [lo, hi], each read by as_int,
    ascending and ending at hi; entries outside [lo, hi] are dropped."""
    xs = {as_int(x, "schedule entry") for x in schedule}
    return sorted({x for x in xs if lo <= x <= hi} | {hi})


def as_real(value, what: str, error: type[Exception] = RangeError) -> float:
    """value as a finite float: a Python or numpy real, not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int past the float range
            real = math.inf
        if math.isfinite(real):
            return real
    raise error(f"{what} {value!r} is not a finite real")


def _check_range(lo: int, hi: int) -> tuple[int, int]:
    lo = as_int(lo, "lo", minimum=1)
    hi = as_int(hi, "hi", minimum=lo)
    if hi > MAX_LIMIT:
        raise RangeError(f"upper bound {hi} exceeds the 2^63-1 exact-arithmetic cap")
    return lo, hi


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
        from .reporting import write_csv

        write_csv(path, ["n", "value"], enumerate(self.values.tolist(), self.lo))


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
    """Primality of a single index by deterministic Miller-Rabin.

    n is tested to the first prime bases in turn and is prime once it
    passes every base up to one whose entry in MILLER_RABIN_BASES exceeds
    n: below that entry no composite passes them all.  So n < 1373653 takes
    two bases and every n < MILLER_RABIN_LIMIT at most 13.

    Raises:
        RangeError: n is not an integer, or n >= MILLER_RABIN_LIMIT.
    """
    n = as_int(n, "primality argument")
    if n >= MILLER_RABIN_LIMIT:
        raise RangeError(f"primality of {n} is not decided below {MILLER_RABIN_LIMIT}")
    if n < 2:
        return False
    for a, _ in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a, decided_below in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < decided_below:
            break
    return True


# The bound of sieve_primes' kept table: the window kernels ask it for the
# primes to sqrt(hi) or hi^(1/k) in every window.
KEPT_PRIMES_MAX = 2**20


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only array.  limit < 2
    yields an empty array.

    Up to KEPT_PRIMES_MAX the result is a prefix of one kept table, sieved
    to KEPT_PRIMES_MAX on first use (82025 primes, 656 kB).  A larger
    limit is sieved afresh and not kept.

    Raises:
        RangeError: limit is not an integer, or past 2^63-1.
        CapacityError: the limit + 1 bytes of flags exceed MAX_SPF_BYTES.
    """
    limit = as_int(limit, "limit")
    if limit <= KEPT_PRIMES_MAX:
        primes = _kept_primes()
    elif limit > MAX_LIMIT:
        raise RangeError(f"limit {limit} exceeds the 2^63-1 cap")
    else:
        check_bytes(limit + 1, f"prime sieve to {limit}")
        primes = _eratosthenes(limit)
    return primes[: np.searchsorted(primes, limit, side="right")]


@functools.cache
def _kept_primes() -> np.ndarray:
    return _eratosthenes(KEPT_PRIMES_MAX)


def _eratosthenes(top: int) -> np.ndarray:
    """Every prime <= top, as a read-only int64 array."""
    flags = np.ones(top + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.nonzero(flags)[0].astype(np.int64)
    primes.setflags(write=False)
    return primes


def sieve_mobius_segment(lo: int, hi: int) -> DenseValueTable:
    """Exact mu(n) for n in [lo, hi], sieved segment-locally.

    mu is the k = 2 case of liouville_kfree_segment, which needs only the
    primes up to sqrt(hi).

    Args:
        lo, hi: Segment bounds, 1 <= lo <= hi <= 2^63-1.

    Returns:
        DenseValueTable of mu over [lo, hi], values in {-1, 0, 1}.
    """
    return DenseValueTable(lo, hi, liouville_kfree_segment(lo, hi, 2), label="mu")


def liouville_kfree_segment(
    lo: int, hi: int, k: int | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """lambda(n) * [n is k-free] for n in [lo, hi] as an int8 array: `out`
    when given (int8, one entry per n), else a fresh one.

    lambda(n) = (-1)^Omega(n) is the Liouville function; k = None leaves
    it untruncated and k = 2 gives mu.  The window is sieved on one uint16
    accumulator: its low byte counts the prime-power hits c(n), so its
    parity is the sign, and its high byte sums S(n).  For each prime p up
    to B = isqrt(hi), read from `sieve_primes`, with a multiple in the
    window (every p up to its length, and each larger p that one remainder
    test finds) one strided add of l(p) << 8 | 1, with l(p) =
    floor(4 log2 p) an exact integer, hits the multiples of p, p^2, ...,
    p^(k-1); the multiples of p^k are zeroed on the int8 signs at the end.
    The first powers of 2, 3, 5, 7, 11 and 13 come from a 30030-periodic
    pattern, the rest from the loop.  The
    accumulator is the bound workspace's inside a stream (see `workspace`).
    At 2 bytes a value it holds at most 2^30 values within MAX_SPF_BYTES,
    so a longer window raises CapacityError, as does a fresh output past
    the budget.

    Every prime factor left unsieved exceeds B and (B + 1)^2 > hi, so a
    k-free n carries at most one, which flips its sign once more.  It is
    there exactly when S(n) < T(n) = 4 (bitlen(n) - 1) - E, E = floor(log3 hi):
    - If every prime factor of n was sieved, S(n) >= T(n): each odd
      prime-power slice through n loses less than a quarter bit, at most
      E odd slices pass through it, and p = 2 loses nothing.
    - Otherwise the sieved part of n is at most n / (B + 1), so
      S(n) <= 4 log2 n - 4 log2 (B + 1) < T(n) once
      4 log2 (B + 1) >= 4 + E, which holds for hi >= 8.  The tests check
      every window with hi <= 64, and so those below 8.
    The packing is exact for n <= 2^63-1: c(n) <= Omega(n) <= 62, so the
    low byte never carries into the high byte, and S(n) <= 4 log2 n <= 252,
    so the accumulator stays below 2^16.  acc < T << 8 holds exactly when
    S(n) < T(n), and the largest threshold, (4 * 62 - E) << 8, is below
    2^16 too.  T is constant on each [2^m, 2^(m+1)) range, so the window
    takes one compare per range it meets, writing the flag [S < T] into
    the output's bytes; one XOR with the accumulator then leaves the
    parity of c(n) + [S < T] in bit 0.

    The same body sieves the odd n of a window alone for `mertens`, one
    index per odd n, and gives there this array's odd entries (see
    `_liouville_kfree_progression`).

    Args:
        lo, hi: Segment bounds, 1 <= lo <= hi <= 2^63-1.
        k: Truncation order (>= 2), or None for no truncation.
        out: Optional int8 array of hi - lo + 1 entries to write into.
    """
    lo, hi = _check_range(lo, hi)
    return _liouville_kfree_progression(lo, hi - lo + 1, 1, k, out)


def _liouville_kfree_progression(
    lo: int, size: int, step: int, k: int | None, out: np.ndarray | None
) -> np.ndarray:
    """liouville_kfree_segment's values at n = lo + step i, 0 <= i < size,
    for step 1 (the window [lo, lo + size - 1]) or step 2 (its odd n alone:
    lo must be odd).  The caller checks lo and size; hi is the last n.

    Every n here is step (n // step) + step - 1, so its index is
    n // step - lo // step.  At step 2, p = 2 divides no n and is skipped,
    and the first powers of 3, ..., 13 come from the odd half of the wheel
    pattern, of period 15015, whose (n // 2)-th entry is n's.  An odd
    q = p^j divides n = 2 (n // 2) + 1 exactly when n // 2 = q // 2 mod q,
    so its multiples lie q indices apart from (q // 2 - lo // 2) mod q,
    which is (-lo) (q + 1) / 2 mod q; at step 1 the same formula is
    -lo mod q.  Each power is one strided add from there, and no
    intermediate of the formula leaves (-2^63, 2^63), so an int64 array of
    powers never wraps.  A threshold range [2^m, 2^(m+1)) covers the
    indices of its odd n.  The log test holds as at step 1, n by n: the
    sieved primes that divide an odd n are the same, and T(n) depends on n
    and hi alone.
    """
    if k is not None:
        k = as_int(k, "truncation order k", minimum=2)
    hi = lo + step * (size - 1)
    sign = output(out, size, np.int8)
    start = lo // step
    primes = sieve_primes(isqrt(hi))[step - 1 :]  # from 3 at step 2
    # a prime with no multiple in the window has none of its powers there
    primes = primes[(primes // step - start) % primes < size]
    acc = tiled_window(_WHEEL_HITS[step - 1 :: step], _WHEEL // step, start, start + size - 1,
                       out=scratch(TABLE, size, np.uint16))
    for p in primes.tolist():
        pj, j = (p * p, 2) if p in _WHEEL_PRIMES else (p, 1)
        hit = _quarter_log2(p) << 8 | 1
        while pj <= hi and (k is None or j < k):
            t = acc[(pj // step - start) % pj :: pj]
            np.add(t, hit, out=t)
            pj *= p
            j += 1
    e = next(e for e in range(40) if 3 ** (e + 1) > hi)  # E = floor(log3 hi), exactly
    i = 0
    while i < size:
        m = (lo + step * i).bit_length() - 1
        # the indices of the n in [2^m, 2^(m+1))
        r = slice(i, min(size, (2 ** (m + 1) - 1 - lo) // step + 1))
        # the output flags [S < T]; no S is below a threshold T <= 0
        np.less(acc[r], max(4 * m - e, 0) << 8, out=sign.view(np.bool_)[r])
        i = r.stop
    bits = sign.view(np.uint8)  # bit 0 of flag ^ acc: the parity of c(n) + [S < T]
    np.bitwise_xor(bits, acc, out=bits, casting="unsafe")
    np.bitwise_and(bits, 1, out=bits)
    np.multiply(sign, -2, out=sign)
    np.add(sign, 1, out=sign)
    if k is not None:
        # the p^k, p <= hi^(1/k), from the primes this window has sieved
        kth = primes[: np.searchsorted(primes, introot(hi, k), side="right")]
        _zero_multiples(sign, lo, step, kth**k)
    return sign


def _quarter_log2(p: int) -> int:
    """floor(4 log2 p), exactly."""
    return (p**4).bit_length() - 1


def _wheel_pattern() -> np.ndarray:
    """Read-only hits l(p) << 8 | 1 of the first powers of 2, 3, 5, 7, 11
    and 13, summed over two periods of n mod 30030, so that any period is
    one slice."""
    hits = np.zeros(2 * _WHEEL, dtype=np.uint16)
    for p in _WHEEL_PRIMES:
        hits[::p] += _quarter_log2(p) << 8 | 1
    hits.setflags(write=False)
    return hits


_WHEEL_HITS = _wheel_pattern()


def tiled_window(block: np.ndarray, period: int, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Entries lo..hi of a sequence of the given period, from phase
    lo % period of `block` (whole periods long): into `out` when given (of
    block's dtype, one entry per n), else a fresh array.

    The entries up to the window's first period boundary come from block's
    tail; from there whole periods repeat, so the first copy of the block
    is doubled until the window is full."""
    size = max(hi - lo + 1, 0)
    out = output(out, size, block.dtype)
    start = lo % period
    done = min(size, len(block) - start)
    out[:done] = block[start : start + done]
    width = min(size - done, len(block))
    out[done : done + width] = block[:width]
    while done + width < size:
        more = min(width, size - done - width)
        out[done + width : done + width + more] = out[done : done + more]
        width += more
    return out


def sieve_kfree_segment(lo: int, hi: int, k: int) -> DenseValueTable:
    """Indicator of k-free n (no prime power p^k divides n) over [lo, hi],
    for any order k >= 2: only the primes p <= hi^(1/k) are sieved.
    CapacityError when its hi - lo + 1 bytes exceed MAX_SPF_BYTES."""
    k = as_int(k, "k-free order k", minimum=2)
    lo, hi = _check_range(lo, hi)
    check_bytes(hi - lo + 1, f"k-free table on [{lo}, {hi}]")
    vals = np.ones(hi - lo + 1, dtype=np.int8)
    zero_kth_power_multiples(vals, lo, k)
    return DenseValueTable(lo, hi, vals, label=f"mu_{k}^2")


def zero_kth_power_multiples(vals: np.ndarray, lo: int, k: int) -> None:
    """Zero, in place, the entries of vals (the window lo..lo + len(vals) - 1)
    at the multiples of every p^k, for the primes p <= hi^(1/k) of
    `sieve_primes`.

    Each p^k shorter than the window is one strided assignment.  A longer
    p^k has at most one multiple in the window, and all of those take one
    vectorised assignment.
    """
    _zero_multiples(vals, lo, 1, sieve_primes(introot(lo + len(vals) - 1, k)) ** k)


def _zero_multiples(vals: np.ndarray, lo: int, step: int, powers: np.ndarray) -> None:
    """zero_kth_power_multiples over the progression lo + step i of
    len(vals) values, step 1 or 2 (then lo odd), for the ascending int64
    moduli `powers`, each at most the last n (and odd at step 2)."""
    near = np.searchsorted(powers, len(vals))
    # each modulus' first index, as in _liouville_kfree_progression
    first = (powers // step - lo // step) % powers
    for pk, i in zip(powers[:near].tolist(), first[:near].tolist()):
        vals[i::pk] = 0
    at = first[near:]
    vals[at[at < len(vals)]] = 0


def build_spf(limit: int) -> SpfTable:
    """Smallest-prime-factor table for 1..limit.

    Raises CapacityError when the table would exceed MAX_SPF_BYTES, and
    RangeError when limit is not an integer >= 1; the dtype is the
    narrowest signed integer covering limit.
    """
    limit = as_int(limit, "limit", minimum=1)
    dtype = np.int32 if limit < 2**31 else np.int64
    check_bytes((limit + 1) * np.dtype(dtype).itemsize, f"SPF table for limit {limit}")
    spf = np.zeros(limit + 1, dtype=dtype)
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
    segment_size = as_int(segment_size, "segment_size", minimum=1)
    a = lo
    while a <= hi:
        b = min(a + segment_size - 1, hi)
        yield a, b
        a = b + 1


def introot(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, by exact binary search."""
    n, k = as_int(n, "introot argument", minimum=0), as_int(k, "introot order", minimum=1)
    if n < 2 or k == 1:
        return n
    if k >= n.bit_length():  # 2^k > n
        return 1
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
