"""Multiplicative functions defined by their values on prime powers.

A rule couples a completely multiplicative base (a real character, or a
constant +-1 at every prime) with finitely many per-prime overrides and
an optional k-free truncation: with truncation order k the value at p^r
is zero for r >= k, so the function is supported on the k-free integers.

Two evaluation paths are provided and cross-checked in the test suite:
exact per-n evaluation through a smallest-prime-factor table, and
vectorised streaming over a [lo, hi] segment.  Without truncation a rule
is completely multiplicative, g(pm) = g(p) g(m), and the streaming path
uses that twice.  A character base chi mod q is first completed: chi~
takes the override value v_p at each overridden p | q.  chi~ depends only
on n mod Q, Q = q * prod p^(K_p - 1), at every n with v_p(n) < K_p, so a
window is one phase slice of a cached block of Q values, and the
multiples of p^(K_p) take v_p^(K_p) times chi~ over [lo/p^(K_p),
hi/p^(K_p)].  The K_p grow while Q stays at most
`characters.COMPLETED_PERIOD_MAX`; at K_p = 1 the block is chi's own
period, and the same fill builds the larger blocks from it.  Then the sign
flips once on the multiples of p, p^2, ... of each prime where g departs
from a nonzero base value.  Segments cost O(size) wherever they sit.  The
-1 base is the Liouville function, sieved by
`sieve.liouville_kfree_segment` (the kernel behind mu) with the rule's own
truncation: it flips the sign only at the powers of p below p^k and
zeroes the multiples of p^k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characters import COMPLETED_PERIOD_MAX, RealCharacter, period_block, tiled_window
from .errors import PlanError, RangeError
from .sieve import (
    DenseValueTable,
    SpfTable,
    _check_range,
    as_int,
    is_prime,
    liouville_kfree_segment,
    zero_kth_power_multiples,
)
from .workspace import output


@dataclass(frozen=True)
class MultiplicativeRule:
    """A multiplicative function built from a completely multiplicative base.

    Attributes:
        base: RealCharacter, or +1/-1 for the constant prime value (the
            constant 1 function, or the Liouville-style alternating one).
        overrides: Prime -> value in {-1, +1}, replacing the base at
            finitely many primes.
        k_truncation: When set (k >= 2), values vanish on prime powers
            p^r with r >= k, restricting support to the k-free integers.
        label: Display name.
    """

    base: RealCharacter | int
    overrides: dict[int, int] = field(default_factory=dict)
    k_truncation: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.base, int) and self.base not in (1, -1):
            raise PlanError(f"constant base must be +1 or -1, got {self.base}")
        for p, v in self.overrides.items():
            if v not in (-1, 1):
                raise PlanError(f"override value at p={p} must be +-1, got {v}")
            if not is_prime(p):
                raise PlanError(f"override index {p} is not prime")
        if self.k_truncation is not None:
            k = as_int(self.k_truncation, "truncation order k", PlanError, minimum=2)
            object.__setattr__(self, "k_truncation", k)
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        base = self.base.label if isinstance(self.base, RealCharacter) else f"const{self.base:+d}"
        parts = [base]
        if self.overrides:
            parts.append("mod" + ",".join(str(p) for p in sorted(self.overrides)))
        if self.k_truncation:
            parts.insert(0, f"mu_{self.k_truncation}^2*")
        return "".join(parts)

    # -- prime-power semantics ------------------------------------------

    def prime_value(self, p: int) -> int:
        """Value at a prime (before truncation, exponent 1)."""
        if p in self.overrides:
            return self.overrides[p]
        if isinstance(self.base, RealCharacter):
            return self.base.value(p)
        return self.base

    def prime_power_value(self, p: int, r: int) -> int:
        if r == 0:
            return 1
        if self.k_truncation is not None and r >= self.k_truncation:
            return 0
        v = self.prime_value(p)
        return v if r % 2 == 1 else abs(v)

    def is_unit_valued(self) -> bool:
        """True when every prime value is +-1 (so the rule is invertible
        and completely multiplicative off the truncation)."""
        if isinstance(self.base, RealCharacter):
            return all(p in self.overrides for p in self.base.q_divisor_primes())
        return True

    def without_truncation(self) -> "MultiplicativeRule":
        """The untruncated rule, labelled as the rule `truncated` started
        from: the label less the mu_k^2* prefix that `truncated` adds, or
        the default label when this label does not carry it."""
        if self.k_truncation is None:
            return self
        prefix = f"mu_{self.k_truncation}^2*"
        label = self.label[len(prefix):] if self.label.startswith(prefix) else ""
        return MultiplicativeRule(base=self.base, overrides=dict(self.overrides), label=label)

    def truncated(self, k: int) -> "MultiplicativeRule":
        label = f"mu_{k}^2*{self.without_truncation().label}"
        return MultiplicativeRule(base=self.base, overrides=dict(self.overrides),
                                  k_truncation=k, label=label)

    # -- evaluation paths -----------------------------------------------

    def evaluate(self, n: int, spf: SpfTable) -> int:
        """Exact value at n via SPF factorisation."""
        if n < 1 or n > spf.limit:
            raise RangeError(f"n={n} outside SPF limit {spf.limit}")
        out = 1
        for p, r in spf.factorize(n):
            out *= self.prime_power_value(p, r)
            if out == 0:
                return 0
        return out

    def values(self, lo: int, hi: int) -> DenseValueTable:
        """Dense values over [lo, hi] by segment streaming."""
        return DenseValueTable(lo, hi, self.segment_values(lo, hi), label=self.label)

    def segment_values(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """int8 values over [lo, hi]: into `out` when given (int8, one entry
        per n), else a fresh array.  lo and hi are read as the sieve tables
        read them: RangeError unless 1 <= lo <= hi <= 2^63-1."""
        lo, hi = _check_range(lo, hi)
        vals = self._complete_values(lo, hi, out)
        liouville = not isinstance(self.base, RealCharacter) and self.base == -1
        if self.k_truncation is not None and not liouville:
            zero_kth_power_multiples(vals, lo, self.k_truncation)
        return vals

    def _complete_values(self, lo: int, hi: int, out: np.ndarray | None) -> np.ndarray:
        """Values over [lo, hi] of the untruncated rule, into `out` or a
        fresh array, except that the sieve of the -1 base applies the
        truncation.  The fills (overrides where the base vanishes) give the
        completed base from its cached block; each flip then negates the
        window once."""
        base = self.base
        chi = base if isinstance(base, RealCharacter) else None
        flips, fills = [], []
        for p, v in sorted(self.overrides.items()):
            at_p = int(chi.period_values[p % chi.modulus]) if chi is not None else base
            if at_p == 0:
                fills.append((p, v))
            elif at_p != v:
                flips.append(p)
        if chi is not None:
            block, period, steps = _completed_block(chi.period_values.tobytes(), tuple(fills))
            vals = _fill_window(block, period, steps, lo, hi, out=out)
        elif base == 1:
            vals = output(out, hi - lo + 1, np.int8)
            vals.fill(1)
        else:
            vals = liouville_kfree_segment(lo, hi, self.k_truncation, out=out)
        for p in flips:
            for sel in _power_slices(lo, hi, p):
                np.negative(vals[sel], out=vals[sel])
        return vals


@lru_cache(maxsize=8)
def _completed_block(period_values: bytes, fills: tuple[tuple[int, int], ...]):
    """(block, Q, steps) of chi completed by the fills (p, v_p): chi~ on
    [Q, 2Q - 1] as read-only whole periods, filled at K_p = 1 from chi's
    own period, and the pairs (p^(K_p), v_p^(K_p)).  The K_p grow round
    robin while Q = q * prod p^(K_p - 1) <= COMPLETED_PERIOD_MAX."""
    chi = np.frombuffer(period_values, dtype=np.int8)
    q = period = len(chi)
    ks = dict.fromkeys((p for p, _ in fills), 1)
    grown = True
    while grown:
        grown = False
        for p in ks:
            if period * p <= COMPLETED_PERIOD_MAX:
                period, ks[p], grown = period * p, ks[p] + 1, True
    block = _fill_window(period_block(chi), q, fills, period, 2 * period - 1)
    return period_block(block), period, tuple((p ** ks[p], v ** ks[p]) for p, v in fills)


def _fill_window(block: np.ndarray, period: int, steps, lo: int, hi: int, memo=None, out=None) -> np.ndarray:
    """Values over [lo, hi], into `out` or a fresh array, of a completely
    multiplicative function that is the sequence of the given period off
    the multiples of each m in steps, where it is w * f(n / m) for its pair
    (m, w): a phase slice of block, then each step writes w times the
    window [lo/m, hi/m].

    The steps reach [lo/d, hi/d] along every ordering of d's factors; the
    memo computes each such window once.  It is passed down rather than
    closed over, as a self-referencing closure would leave the windows to
    the cycle collector."""
    memo = {} if memo is None else memo
    if (lo, hi) not in memo:
        vals = tiled_window(block, period, lo, hi, out=out)
        for m, w in steps:
            c, d = -(-lo // m), hi // m
            if c <= d:
                vals[c * m - lo :: m] = w * _fill_window(block, period, steps, c, d, memo)
        memo[lo, hi] = vals
    return memo[lo, hi]


def _power_slices(lo: int, hi: int, p: int):
    """Slices of a [lo, hi] window at the multiples of p, p^2, ... up to hi;
    the entry for n lies in exactly v_p(n) of them."""
    pe = p
    while pe <= hi:
        yield slice(-lo % pe, hi - lo + 1, pe)
        pe *= p


def character_rule(chi: RealCharacter, k: int | None = None) -> MultiplicativeRule:
    """The character itself as a rule, optionally restricted to k-free n."""
    return MultiplicativeRule(base=chi, k_truncation=k)


def mobius_rule() -> MultiplicativeRule:
    """mu as a rule: alternating base truncated at squares."""
    return MultiplicativeRule(base=-1, k_truncation=2, label="mu")


def one_rule() -> MultiplicativeRule:
    """The constant function 1."""
    return MultiplicativeRule(base=1, label="one")
