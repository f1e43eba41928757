"""Exact Dirichlet-algebra operations on dense prefix tables.

Convolution, Dirichlet inversion and pointwise products all operate on
tables over [1, N] with exact 64-bit integers.  Convolution and inversion
run in int64 when an a-priori bound on their values fits it (always for
{-1, 0, 1} tables at the oracle scales used here, N <= ~10^6); otherwise
they run in Python ints and raise CapacityError, naming the first n whose
value leaves int64, rather than wrap.  Both sum over divisor pairs with
one kernel, `_product_into`.

Two closed-form convolution factors are also built directly from their
prime-power laws:

* ``kfree_factor(k, g, N)``: the factor h with g * h = (k-free
  indicator) * g for a completely multiplicative g; h is supported on
  k-th powers, with h(m^k) = mu(m) * g(m)^k (``kfree_factor_at_powers``).
* ``deviation_factor(g, chi, N)``: the factor h = (mu*g) conv chi, whose
  prime-power values chi(p)^(r-1) * (chi(p) - g(p)) vanish wherever g
  agrees with chi.  Its support, the S-smooth n for the finite set S of
  primes where g departs from chi, comes from ``smooth_terms``, which the
  S-smooth summatory oracle of g shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

import numpy as np

from .characters import RealCharacter
from .errors import CapacityError, NonInvertibleError, RangeError, ShapeError
from .rules import MultiplicativeRule
from .sieve import MAX_LIMIT, DenseValueTable, as_int, introot, sieve_mobius_segment
from .workspace import check_bytes


@dataclass(frozen=True)
class ConvolutionTable:
    """Exact (a * b)(n) for 1 <= n <= limit, with 64-bit integer entries."""

    limit: int
    values: np.ndarray = field(repr=False)  # index n, [0] unused
    operands: tuple[str, str] = ("", "")

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    def value_at(self, n: int) -> int:
        if n < 1 or n > self.limit:
            raise RangeError(f"n={n} outside convolution limit {self.limit}")
        return int(self.values[n])

    def as_table(self, label: str = "") -> DenseValueTable:
        return DenseValueTable(1, self.limit, self.values[1:].copy(),
                               label=label or f"{self.operands[0]}*{self.operands[1]}")

    def to_csv(self, path) -> None:
        self.as_table().to_csv(path)


def _require_prefix(t: DenseValueTable, name: str) -> None:
    if t.lo != 1:
        raise ShapeError(f"{name} must start at 1, got lo={t.lo}")


def _shared_limit(a: DenseValueTable, b: DenseValueTable) -> int:
    _require_prefix(a, "left operand")
    _require_prefix(b, "right operand")
    if a.hi != b.hi:
        raise ShapeError(f"operand ranges differ: [1,{a.hi}] vs [1,{b.hi}]")
    return a.hi


def _bound(values: np.ndarray) -> int:
    """max(|v|) over an int64 array, at least 1, as a Python int."""
    return max(-int(values.min(initial=0)), int(values.max(initial=0)), 1)


def _require_int64(values: np.ndarray, first: int, what: str) -> None:
    """Raise CapacityError naming the first n (values[i] is n = first + i)
    whose exact value leaves int64."""
    outside = np.flatnonzero((values < -MAX_LIMIT - 1) | (values > MAX_LIMIT))
    if len(outside):
        i = int(outside[0])
        raise CapacityError(f"{what} value at n={first + i} is {values[i]}, outside int64")


def _int64_values(t: DenseValueTable, what: str) -> np.ndarray:
    """t's values as int64; CapacityError names the first n whose value
    leaves int64 (an object or uint64 table need not fit)."""
    if not np.can_cast(t.values.dtype, np.int64):
        _require_int64(t.values, t.lo, what)
    return t.values.astype(np.int64)


def _product_into(out: np.ndarray, lo: int, hi: int, x: np.ndarray, y: np.ndarray) -> None:
    """out[m - lo] += sum_{d e = m} x[d] y[e] for every m in [lo, hi].

    x and y are indexed by n, entry 0 unused, and read up to hi.  The pairs
    d e = m are split at s = isqrt(hi), as in the hyperbola method: each
    d <= s adds x[d] times the slice of y along its multiples in [lo, hi],
    then each e <= hi // (s + 1) adds y[e] times the slice of x over d > s.
    Every pair has d <= s or d > s >= e, so it is counted once, and no
    slice holds an index twice: O(sqrt(hi)) numpy passes rather than one
    per divisor.
    """
    s = isqrt(hi)
    for d in range(1, s + 1):
        xd = x[d]
        if xd:
            e0 = -(-lo // d)
            out[d * e0 - lo :: d] += xd * y[e0 : hi // d + 1]
    for e in range(1, hi // (s + 1) + 1):
        ye = y[e]
        if ye:
            d0 = max(s + 1, -(-lo // e))
            out[d0 * e - lo :: e] += ye * x[d0 : hi // e + 1]


def dirichlet_convolve(a: DenseValueTable, b: DenseValueTable) -> ConvolutionTable:
    """(a * b)(n) = sum_{d|n} a(d) b(n/d) for n <= N, exactly: one
    `_product_into` over [1, N], O(N log N) element work.

    |(a * b)(n)| <= tau(n) max|a| max|b| <= N max|a| max|b|; when that bound
    fits int64 the sums run in int64, otherwise in Python ints, and a value
    outside int64 raises CapacityError naming the first such n, as does an
    operand value outside int64.
    """
    n = _shared_limit(a, b)
    av = _int64_values(a, "left operand")
    bv = _int64_values(b, "right operand")
    dtype = np.int64 if n * _bound(av) * _bound(bv) <= MAX_LIMIT else object
    av, bv = (np.concatenate(([0], v)).astype(dtype, copy=False) for v in (av, bv))
    out = np.zeros(n + 1, dtype=dtype)
    _product_into(out[1:], 1, n, av, bv)
    if dtype is object:
        _require_int64(out[1:], 1, "Dirichlet convolution")
    return ConvolutionTable(limit=n, values=out.astype(np.int64), operands=(a.label, b.label))


def dirichlet_inverse(a: DenseValueTable) -> ConvolutionTable:
    """Table b with (a * b) = unit (1 at n=1, else 0) on [1, N].

    b(1) = a(1) and b(m) = -a(1) sum_{d|m, d<m} b(d) a(m/d), filled over
    the dyadic blocks [L, 2L), each by one `_product_into` of b and a with
    a(1) zeroed, so that only proper divisors are summed.  Every proper
    divisor d of an m in a block is <= m/2 < L, so the block's sums read
    only values fixed before it.  O(N log N) element work in all.

    |b(n)| <= n^2 A^(log2 n), A = max_{d>=2} |a(d)|; when that bound fits
    int64 the sums run in int64, otherwise in Python ints, and it raises
    CapacityError naming the first n whose b(n) leaves int64.  That check
    runs after each block: the blocks before it are all in range and no
    value in a block depends on another in it, so this n and its value are
    those of an entry-by-entry recursion.  An operand value outside int64
    raises CapacityError naming its n.
    """
    _require_prefix(a, "operand")
    n = a.hi
    a1 = int(a.values[0])
    if a1 == 0:
        raise NonInvertibleError("a(1) = 0 has no Dirichlet inverse")
    if a1 not in (1, -1):
        raise NonInvertibleError(f"a(1) = {a1} is not a unit in the integer table ring")
    av = _int64_values(a, "operand")
    checked = n * n * _bound(av[1:]) ** (n.bit_length() - 1) > MAX_LIMIT
    # av[j] = a(j) for j >= 2, and av[1] = 0
    av = np.concatenate(([0, 0], av[1:])).astype(object if checked else np.int64, copy=False)
    b = np.zeros(n + 1, dtype=av.dtype)
    b[1] = a1
    lo = 2
    while lo <= n:
        hi = min(2 * lo - 1, n)
        block = b[lo : hi + 1]
        _product_into(block, lo, hi, b, av)
        block *= -a1
        if checked:
            _require_int64(block, lo, "Dirichlet inverse")
        lo = hi + 1
    return ConvolutionTable(limit=n, values=b.astype(np.int64), operands=(a.label, "^-1"))


def pointwise_product(a: DenseValueTable, b: DenseValueTable) -> DenseValueTable:
    """Entrywise product over a shared [lo, hi] range."""
    if a.lo != b.lo or a.hi != b.hi:
        raise ShapeError(
            f"pointwise product needs matching ranges, got [{a.lo},{a.hi}] vs [{b.lo},{b.hi}]"
        )
    dtype = np.result_type(a.values.dtype, b.values.dtype)
    vals = a.values.astype(dtype) * b.values.astype(dtype)
    return DenseValueTable(a.lo, a.hi, vals, label=f"{a.label}*{b.label}")


def kfree_factor(k: int, g: MultiplicativeRule, limit: int) -> DenseValueTable:
    """The convolution factor restricting g to k-free support.

    For completely multiplicative g with prime values in {-1, 0, 1}, the
    function f(n) = [n k-free] * g(n) factors as f = g * h where h is
    supported on k-th powers, with h(m^k) from `kfree_factor_at_powers`.

    Raises:
        RangeError: k is not an integer >= 2, or limit not one >= 1.
        CapacityError: the table's limit bytes exceed MAX_SPF_BYTES.
    """
    if g.k_truncation is not None:
        raise ShapeError("factor requires the untruncated completely multiplicative g")
    k = as_int(k, "k-free order k", minimum=2)
    limit = as_int(limit, "limit", minimum=1)
    check_bytes(limit, f"k-free factor to {limit}")
    root = introot(limit, k)
    h = np.zeros(limit, dtype=np.int8)
    if root >= 1:
        m = np.arange(1, root + 1, dtype=np.int64)
        h[m**k - 1] = kfree_factor_at_powers(k, g, root).astype(np.int8)
    return DenseValueTable(1, limit, h, label=f"kfree_factor[k={k},{g.label}]")


def kfree_factor_at_powers(k: int, g: MultiplicativeRule, root: int) -> np.ndarray:
    """h(m^k) = mu(m) * g(m)^k for 1 <= m <= root, as int64.

    With g(m) in {-1, 0, 1}, g(m)^k is g(m) when k is odd and |g(m)| when
    k is even.
    """
    k = as_int(k, "k-free order k", minimum=2)
    mu = sieve_mobius_segment(1, root).values.astype(np.int64)
    gv = g.segment_values(1, root).astype(np.int64)
    return mu * (gv if k % 2 == 1 else np.abs(gv))


def smooth_terms(
    g: MultiplicativeRule, limit: int, law: Callable[[int, int, int], int]
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero terms (n, t(n)), n <= limit, sorted by n, of the
    multiplicative t with t(p^r) = law(g(p), chi(p), r) at the primes where
    g departs from its base character chi and t(p^r) = 0 at all others.

    The primes where g(p) != chi(p) form a finite set S, the overrides of
    g and the primes dividing q, so t is supported on the S-smooth n.  They
    are grown one prime of S at a time as int64 arrays, each n * p^r kept
    only while n <= limit // p^r, so no product passes limit.

    Raises:
        ShapeError: g is truncated, or its base is a constant, not a
            character (the message names g's label).
    """
    if g.k_truncation is not None:
        raise ShapeError(f"S-smooth terms need the untruncated g, got '{g.label}'")
    chi = g.base
    if not isinstance(chi, RealCharacter):
        raise ShapeError(
            f"rule '{g.label}' has the constant base {chi:+d}: S-smooth terms need a character base"
        )
    primes = sorted(p for p in set(g.overrides) | set(chi.q_divisor_primes())
                    if g.prime_value(p) != chi.value(p))
    n = np.ones(1 if limit >= 1 else 0, dtype=np.int64)
    t = n.copy()
    for p in primes:
        ns, ts = [n], [t]
        pr, r = p, 1
        while pr <= limit:
            local = law(g.prime_value(p), chi.value(p), r)
            if local:
                keep = n <= limit // pr
                ns.append(n[keep] * pr)
                ts.append(t[keep] * local)
            pr, r = pr * p, r + 1
        n, t = np.concatenate(ns), np.concatenate(ts)
    order = np.argsort(n)
    return n[order], t[order]


def deviation_factor(g: MultiplicativeRule, chi: RealCharacter, limit: int) -> DenseValueTable:
    """Multiplicative table of h = (mu*g) conv chi from its prime-power law.

    h(p^r) = chi(p)^(r-1) * (chi(p) - g(p)): zero wherever g matches chi,
    so h is supported on the S-smooth integers of `smooth_terms`, and only
    those entries are written.

    Raises:
        ShapeError: g is truncated, or its base is not chi (the message
            names both labels).
        CapacityError: the table's 8 * limit bytes exceed MAX_SPF_BYTES.
    """
    base = g.base
    if not (isinstance(base, RealCharacter) and base.modulus == chi.modulus
            and np.array_equal(base.period_values, chi.period_values)):
        raise ShapeError(f"deviation factor of '{g.label}' needs the base character {chi.label}")
    check_bytes(8 * max(limit, 0), f"deviation factor to {limit}")
    n, t = smooth_terms(g, limit, lambda gp, cp, r: cp ** (r - 1) * (cp - gp))
    h = np.zeros(max(limit, 0), dtype=np.int64)
    h[n - 1] = t
    return DenseValueTable(1, limit, h, label=f"dev[{g.label},{chi.label}]")
