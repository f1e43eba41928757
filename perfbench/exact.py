"""Second exact routes that check benchmark results outside the timed region.

None of them calls a kfreesums kernel: they read only a rule's
specification (its character's period table and its per-prime overrides)
and derive the answer by a different algorithm than the package uses.

* ``KfreeSum`` evaluates M_f(x) for f = [n k-free] * g, g completely
  multiplicative and equal to a real character chi off a finite prime set
  S.  Writing f = g * h with h(m^k) = mu(m) g(m)^k and g = chi * e with e
  supported on S-smooth n, e(p^r) = g(p)^(r-1) (g(p) - chi(p)),

      M_f(x) = sum_{m <= x^(1/k)} mu(m) g(m)^k M_g(x // m^k)
      M_g(y) = sum_{n S-smooth} e(n) M_chi(y // n),

  and M_chi(y) is read from one period of prefix sums (full periods of a
  non-principal character cancel).  Cost is O(x^(1/k) * #S-smooth terms).
* ``deviation_table`` builds (mu g) * chi from its prime-power law over
  the S-smooth integers alone.
* ``distance`` sums the pretentious distance over the override primes
  and the primes dividing the modulus, the only primes where two rules
  sharing a character can disagree.
"""

from __future__ import annotations

import math

import numpy as np


def iroot(x: int, k: int) -> int:
    """Largest r with r**k <= x."""
    r = int(round(x ** (1.0 / k)))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def mobius_upto(n: int) -> np.ndarray:
    """mu(0..n) by a plain Eratosthenes sieve (mu[0] = 0)."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = True
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def smooth_terms(primes, local, limit: int) -> list[tuple[int, int]]:
    """(n, F(n)) for every n <= limit built from `primes`, F multiplicative
    with F(p^r) = local(p, r); zero-valued n are dropped."""
    terms = [(1, 1)]
    for p in primes:
        grown = []
        for n, v in terms:
            pr, r = p, 1
            while n * pr <= limit:
                grown.append((n * pr, v * local(p, r)))
                pr *= p
                r += 1
        terms += grown
    return [(n, v) for n, v in terms if v]


class RuleSpec:
    """A completely multiplicative g read from a rule's base and overrides."""

    def __init__(self, rule):
        if rule.k_truncation is not None:
            rule = rule.without_truncation()
        self.chi = np.asarray(rule.base.period_values, dtype=np.int64)
        self.q = len(self.chi)
        self.g_at = dict(rule.overrides)

    def chi_at(self, p: int) -> int:
        return int(self.chi[p % self.q])

    def g_prime(self, p: int) -> int:
        return self.g_at.get(p, self.chi_at(p))

    def values(self, m: np.ndarray) -> np.ndarray:
        """g(m) for an int64 array, by peeling the override primes."""
        cof = m.copy()
        sign = np.ones_like(m)
        for p, gp in self.g_at.items():
            hit = cof % p == 0
            while hit.any():
                cof[hit] //= p
                sign[hit] *= gp
                hit = cof % p == 0
        return sign * self.chi[cof % self.q]

    def deviating_primes(self) -> list[int]:
        return sorted(p for p, v in self.g_at.items() if v != self.chi_at(p))


class KfreeSum:
    """Exact M_f(x) for f = [n k-free] * g by the sublinear identity above."""

    def __init__(self, rule, k: int):
        self.g = RuleSpec(rule)
        self.k = k
        # prefix[r] = chi(1) + ... + chi(r) for 0 <= r < q
        self.prefix = np.concatenate(([0], np.cumsum(self.g.chi[1:])))

    def values(self, xs: list[int]) -> list[int]:
        """M_f at every x in xs, vectorised over all (x, m) pairs at once."""
        if not xs:
            return []
        roots = [iroot(x, self.k) for x in xs]
        top = max(roots)
        m = np.arange(1, top + 1, dtype=np.int64)
        coeff = mobius_upto(top)[1:] * self.g.values(m) ** self.k
        ys, cs, owner = [], [], []
        for i, (x, r) in enumerate(zip(xs, roots)):
            keep = np.nonzero(coeff[:r])[0]
            ys.append(x // (keep + 1) ** self.k)
            cs.append(coeff[keep])
            owner.append(np.full(len(keep), i))
        y = np.concatenate(ys)
        c = np.concatenate(cs)
        idx = np.concatenate(owner)

        g = self.g

        def e_local(p: int, r: int) -> int:
            gp = g.g_prime(p)
            return gp ** (r - 1) * (gp - g.chi_at(p))

        m_g = np.zeros_like(y)
        for n, e in smooth_terms(g.deviating_primes(), e_local, int(y.max())):
            m_g += e * self.prefix[(y // n) % g.q]
        totals = np.zeros(len(xs), dtype=np.int64)
        np.add.at(totals, idx, c * m_g)
        return [int(t) for t in totals]


def deviation_table(g_rule, chi, limit: int) -> np.ndarray:
    """h(1..limit) for h = (mu g) * chi: h(p^r) = chi(p)^(r-1) (chi(p) - g(p))."""
    g = RuleSpec(g_rule)
    period = np.asarray(chi.period_values, dtype=np.int64)

    def local(p: int, r: int) -> int:
        cp = int(period[p % len(period)])
        return cp ** (r - 1) * (cp - g.g_prime(p))

    out = np.zeros(limit, dtype=np.int64)
    for n, v in smooth_terms(g.deviating_primes(), local, limit):
        out[n - 1] = v
    return out


def distance(f_rule, chi_rule, x: int) -> float:
    """D(f, chi_rule; x) for rules sharing one character, summed over the
    primes where they can differ."""
    f, c = RuleSpec(f_rule), RuleSpec(chi_rule)
    q_primes = {p for p in range(2, c.q + 1) if c.q % p == 0 and all(p % d for d in range(2, p))}
    primes = sorted(p for p in set(f.g_at) | set(c.g_at) | q_primes if p <= x)
    terms = [(1 - f.g_prime(p) * c.g_prime(p)) / p for p in primes]
    return math.sqrt(math.fsum(t for t in terms if t))
