"""Slow, independent reference implementations used only by the tests.

Every function here recomputes its quantity from first principles (trial
division, explicit divisor enumeration, literal definition sums) and
deliberately shares no algorithmic machinery with the package paths it
cross-checks.
"""

import bisect
import math
from math import gcd

import numpy as np


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_trial(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime_trial(n)]


def factorize_trial(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            r = 0
            while n % d == 0:
                n //= d
                r += 1
            out.append((d, r))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius_brute(n: int) -> int:
    if n == 1:
        return 1
    fac = factorize_trial(n)
    if any(r > 1 for _, r in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def liouville_product_segment(lo: int, hi: int, k=None, primes=None) -> np.ndarray:
    """lambda(n) * [n is k-free] over [lo, hi] as int8, by multiplying each
    sieved prime p <= sqrt(hi) into a product of n's detected factors: for
    a k-free n, a product short of n leaves one prime above sqrt(hi), which
    flips the sign once more.  The product divides n, so int64 holds it."""
    root = math.isqrt(hi)
    primes = np.asarray(primes_eratosthenes(root) if primes is None else primes)
    size = hi - lo + 1
    sign = np.ones(size, dtype=np.int8)
    prod = np.ones(size, dtype=np.int64)
    for p in primes[: bisect.bisect_right(primes, root)].tolist():
        if -lo % p >= size:  # no multiple of p, nor of its powers, in the window
            continue
        pj, j = p, 1
        while pj <= hi and (k is None or j < k):
            sel = slice(-lo % pj, size, pj)
            sign[sel] *= -1
            prod[sel] *= p
            pj *= p
            j += 1
        if k is not None and pj <= hi:  # pj = p^k
            sign[-lo % pj :: pj] = 0
    sign[prod != lo + np.arange(size, dtype=np.int64)] *= -1
    return sign


def kfree_brute(n: int, k: int) -> int:
    return 0 if any(r >= k for _, r in factorize_trial(n)) else 1


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def convolve_at(a, b, n: int) -> int:
    """(a conv b)(n) by literal divisor enumeration; a, b map n -> value."""
    return sum(a(d) * b(n // d) for d in divisors(n))


def dirichlet_convolve_loop(a, b) -> list[int]:
    """[(a conv b)(n) for n in 1..N] from one slice per d <= N, in Python
    ints; a and b list a(1..N) and b(1..N)."""
    n = len(a)
    av, bv = np.array(a, dtype=object), np.array(b, dtype=object)
    out = np.zeros(n + 1, dtype=object)
    for d in range(1, n + 1):
        if av[d - 1]:
            out[d::d] += av[d - 1] * bv[: n // d]
    return out[1:].tolist()


def dirichlet_inverse_loop(a) -> list[int]:
    """[a^-1(n) for n in 1..N] by the forward recursion in Python ints:
    as each b(m) is fixed, b(m) a(j) is pushed to every multiple m j."""
    n, a1 = len(a), a[0]
    av = np.array(a, dtype=object)
    b = np.zeros(n + 1, dtype=object)
    acc = np.zeros(n + 1, dtype=object)  # pending sum_{d|m, d<m} b(d) a(m/d)
    for m in range(1, n + 1):
        b[m] = (1 - acc[m]) * a1 if m == 1 else -a1 * acc[m]
        if b[m] and 2 * m <= n:
            acc[2 * m :: m] += b[m] * av[1 : n // m]
    return b[1:].tolist()


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker_brute(d: int, n: int) -> int:
    """Kronecker symbol recomputed by factoring n and applying the
    defining 2-adic rule and Legendre symbols at odd primes."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    out = 1
    for p, r in factorize_trial(n):
        if p == 2:
            if d % 2 == 0:
                s = 0
            elif d % 8 in (1, 7):
                s = 1
            else:
                s = -1
        else:
            s = legendre_euler(d, p)
        if s == 0:
            return 0
        out *= s**r
    return out


def partial_sum_enumeration(value_fn, x: int) -> int:
    return sum(value_fn(n) for n in range(1, x + 1))


def rule_value_brute(rule, n: int) -> int:
    """Evaluate a multiplicative rule at n from a trial-division
    factorisation, bypassing both package evaluation paths."""
    out = 1
    for p, r in factorize_trial(n) if n > 1 else []:
        out *= rule.prime_power_value(p, r)
    return out


def primes_eratosthenes(limit: int) -> list[int]:
    """Primes <= limit from a pure-Python bytearray sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [n for n in range(limit + 1) if flags[n]]


def distance_fsum_loop(f, g, x: int) -> float:
    """Pretentious distance with every prime's term summed by math.fsum;
    exact up to the rounding of each term and of the root."""
    return math.sqrt(math.fsum(
        (1 - f.prime_value(p) * g.prime_value(p)) / p for p in primes_eratosthenes(x)
    ))


def greedy_plan_loop(chi, budget, limit: int) -> tuple[int, ...]:
    """Greedy flips by testing the budget at each prime's binding points.

    Each prime p coprime to q, in increasing order, is flipped when
    2 (flips + 1) plus the modulus primes up to x stays within
    budget.value(x) at every binding point x of [max(p, x0), limit]: its
    edges, the floor and ceiling of the budget's valley, and each
    modulus-prime step s and s - 1 inside it."""
    steps = [p for p in primes_trial(chi.modulus) if chi.modulus % p == 0 and p <= limit]
    # a valley past exp(709) leaves the float range, and every limit
    valley = budget.valley() if (budget.small_c * budget.k / 2) ** 2 < 709 else None
    flips: list[int] = []
    for p in primes_eratosthenes(limit):
        lo = max(p, budget.x0)
        if chi.modulus % p == 0 or lo > limit:
            continue
        points = {lo, limit} | ({math.floor(valley), math.ceil(valley)} if valley else set())
        points |= {s for s in steps} | {s - 1 for s in steps}
        if all(2 * (len(flips) + 1) + bisect.bisect_right(steps, x) <= budget.value(x)
               for x in points if lo <= x <= limit):
            flips.append(p)
    return tuple(flips)


def gcd_coprime(n: int, q: int) -> bool:
    return gcd(n, q) == 1


def mertens_memo_recursion(x: int) -> int:
    """M(x) = 1 - sum_{d=2}^{x} M(x // d), top-down: memoised over the
    floor values above a seed, each summed over its blocks of equal
    x // d by a Python loop; M up to the seed 2 x^(2/3) (at least 1024)
    is the prefix of mu from liouville_product_segment."""
    seed = min(x, max(2 * int(x ** (2 / 3)), 1024))
    small = np.concatenate(([0], np.cumsum(liouville_product_segment(1, seed, 2), dtype=np.int64)))
    memo: dict[int, int] = {}

    def m(y: int) -> int:
        if y <= seed:
            return int(small[y])
        if y in memo:
            return memo[y]
        total = 1
        d = 2
        while d <= y:
            v = y // d
            d2 = y // v
            total -= (d2 - d + 1) * m(v)
            d = d2 + 1
        memo[y] = total
        return total

    return m(x)


def kfree_sum_sublinear(rule, k: int, x: int) -> int:
    """M_f(x) for f = [n k-free] * g, g the completely multiplicative rule
    with g(p) = rule.overrides.get(p, chi(p)) over a real character chi, by
    the sublinear identity

        M_f(x) = sum_{m <= x^(1/k)} mu(m) g(m)^k M_g(x // m^k),
        M_g(y) = sum_{n S-smooth} e(n) M_chi(y // n),

    with e(p^r) = g(p)^(r-1) (g(p) - chi(p)) on the set S of primes where g
    departs from chi, and M_chi(y) from one period of chi's prefix sums.
    It reads only the rule's period table and overrides; mu comes from
    liouville_product_segment, g(m) from peeling the override primes, and
    each term n reads only the y = x // m^k >= n."""
    chi = np.asarray(rule.base.period_values, dtype=np.int64)
    q = len(chi)
    prefix = np.cumsum(chi)  # M_chi(y) = prefix[y % q]: full periods sum to 0
    g_at = dict(rule.overrides)
    root = int(round(x ** (1 / k)))  # then corrected to the exact floor
    while root**k > x:
        root -= 1
    while (root + 1) ** k <= x:
        root += 1
    m = np.arange(1, root + 1, dtype=np.int64)
    cof, sign = m.copy(), np.ones_like(m)
    for p, gp in g_at.items():
        while (hit := cof % p == 0).any():
            cof[hit] //= p
            sign[hit] *= gp
    weight = liouville_product_segment(1, root, 2).astype(np.int64) * (sign * chi[cof % q]) ** k
    keep = np.flatnonzero(weight)  # ascending m, so descending y
    y, weight = x // (keep + 1) ** k, weight[keep]
    terms = [(1, 1)]
    for p in sorted(p for p, gp in g_at.items() if gp != chi[p % q]):
        gp, cp = g_at[p], int(chi[p % q])
        terms += [(n * p**r, e * gp ** (r - 1) * (gp - cp))
                  for n, e in terms for r in range(1, 64) if n * p**r <= x]
    m_g = np.zeros_like(y)
    for n, e in terms:
        if e:  # only the y >= n have M_chi(y // n) != 0
            top = len(y) - np.searchsorted(y[::-1], n)
            m_g[:top] += e * prefix[y[:top] // n % q]
    return int(np.dot(weight, m_g))


class DictSummatory:
    """A summatory oracle read from a {y: M(y)} dict, one lookup per
    argument: an int64 array of arguments gives the int64 array of M, a
    scalar a Python int, and an argument missing from the dict raises
    KeyError."""

    def __init__(self, sums: dict[int, int]):
        self.sums = sums

    def __call__(self, y):
        a = np.asarray(y)
        out = np.array([self.sums[v] for v in a.ravel().tolist()], dtype=np.int64)
        return int(out[0]) if a.ndim == 0 else out.reshape(a.shape)
