"""Real Dirichlet characters: construction, evaluation, validation.

A real character mod q is realised through the Kronecker symbol of a
fundamental discriminant d with |d| = q.  That gives an O(log n)
evaluator plus a period table of length q for O(1) lookups, and the
period table is validated at construction (non-principal, vanishing
exactly off the units, completely multiplicative: checked exactly, over
every residue against each of at most log2(q) generators of the units).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import CharacterConstructionError
from .sieve import DenseValueTable, _check_range, as_int, sieve_primes, tiled_window

# Window lookups tile whole periods of a block (sieve.tiled_window); a block
# of at least this many values keeps that to a few large copies even for
# tiny moduli.
PERIOD_BLOCK_MIN = 4096
# A character completed at the primes p | q repeats with period
# q * prod p^(K_p - 1) off the multiples of each p^(K_p); the K_p grow
# while that period stays at most this.
COMPLETED_PERIOD_MAX = 2**16


def period_block(values: np.ndarray) -> np.ndarray:
    """Whole periods of `values`, at least PERIOD_BLOCK_MIN long, read-only."""
    block = np.tile(values, -(-PERIOD_BLOCK_MIN // len(values)))
    block.setflags(write=False)
    return block


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d|n) for n >= 0, by the standard recursion.

    Handles the 2-adic supplement ((d|2) = 0, 1, -1 for d even, d = +-1
    mod 8, d = +-3 mod 8) and quadratic reciprocity for the odd part.
    """
    d, n = as_int(d, "Kronecker symbol d"), as_int(n, "Kronecker symbol n", minimum=0)
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n % 2 == 0:
        if d % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if d % 8 in (3, 5):
                result = -result
    d %= n
    while d != 0:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class RealCharacter:
    """A real non-principal Dirichlet character mod q.

    Attributes:
        modulus: The period q >= 3.
        period_values: Length-q array, period_values[n % q] == chi(n).
        discriminant: Fundamental discriminant backing the Kronecker symbol.
    """

    modulus: int
    period_values: np.ndarray = field(repr=False)
    discriminant: int

    def __post_init__(self) -> None:
        self.period_values.setflags(write=False)
        object.__setattr__(self, "_period_block", period_block(self.period_values))
        # prefix[r] = chi(1) + ... + chi(r), as chi(0) = 0
        object.__setattr__(self, "_prefix", np.cumsum(self.period_values, dtype=np.int64))

    @property
    def label(self) -> str:
        return f"chi_{self.modulus}"

    def value(self, n: int) -> int:
        return int(self.period_values[n % self.modulus])

    def values(self, lo: int, hi: int) -> np.ndarray:
        """chi(lo..hi) as a fresh writable array, tiled from phase lo % q."""
        return tiled_window(self._period_block, self.modulus, lo, hi)

    def partial_sum(self, y):
        """M_chi(y) for an integer or an integer array y, in O(1) per argument.

        chi is non-principal, so each full period sums to zero and M_chi(y)
        is the one-period prefix at y mod q; it is 0 for y <= 0.  A scalar
        gives a Python int, an array the int64 array of the same shape.
        """
        y = np.asarray(y)
        out = np.where(y > 0, self._prefix[np.asarray(y % self.modulus, dtype=np.intp)], 0)
        return int(out) if out.ndim == 0 else out

    def max_abs_partial_sum(self) -> int:
        """max_y |M_chi(y)|; attained within the first period."""
        return int(np.max(np.abs(self._prefix)))

    def q_divisor_primes(self) -> list[int]:
        """Sorted prime divisors of the modulus."""
        out, q = [], self.modulus
        p = 2
        while p * p <= q:
            if q % p == 0:
                out.append(p)
                while q % p == 0:
                    q //= p
            p += 1
        if q > 1:
            out.append(q)
        return out


def _is_squarefree(n: int) -> bool:
    return all(n % (p * p) for p in sieve_primes(isqrt(abs(n))).tolist())


def _fundamental_discriminant_candidates(q: int) -> list[int]:
    cands = []
    for d in (q, -q):
        if d % 4 == 1 and _is_squarefree(d):
            cands.append(d)
        elif d % 4 == 0:
            m = d // 4
            if m % 4 in (2, 3) and _is_squarefree(m):
                cands.append(d)
    # prefer positive discriminants so q=8 picks (8|.), matching chi(7)=+1
    return sorted(cands, reverse=True)


def build_real_character(q: int, discriminant: int | None = None) -> RealCharacter:
    """Construct the primitive real non-principal character mod q.

    Supported moduli are those carrying a fundamental discriminant of
    absolute value q (odd primes, 4, 8, and squarefree composites of the
    right residue class).  The period table is filled from the Kronecker
    symbol and validated before returning.

    Raises:
        CharacterConstructionError: q or the discriminant is not an integer,
            no such character exists for q, or the requested discriminant
            fails validation.
    """
    q = as_int(q, "modulus", CharacterConstructionError)
    if q < 3:
        raise CharacterConstructionError(f"no real non-principal character mod {q}")
    cands = ([as_int(discriminant, "discriminant", CharacterConstructionError)]
             if discriminant is not None else _fundamental_discriminant_candidates(q))
    for d in cands:
        table = np.array([kronecker_symbol(d, r) for r in range(q)], dtype=np.int8)
        if _valid_period_table(q, table):
            return RealCharacter(modulus=q, period_values=table, discriminant=d)
    raise CharacterConstructionError(
        f"modulus {q} carries no supported real non-principal character"
    )


def _valid_period_table(q: int, table: np.ndarray) -> bool:
    if int(np.sum(table, dtype=np.int64)) != 0:  # principal or non-character
        return False
    residues = np.arange(q, dtype=np.int64)
    units = np.gcd(residues, q) == 1
    if not np.array_equal(table != 0, units):  # must vanish exactly off the units
        return False
    # complete multiplicativity, exactly: chi(a r) = chi(a) chi(r) for every
    # residue r and each a in a generating set of the units gives it for all
    # pairs, since a product of generators peels off one factor at a time
    return all(
        np.array_equal(table[a * residues % q], table[a] * table)
        for a in _unit_generators(units)
    )


def _unit_generators(units: np.ndarray) -> list[int]:
    """Generators of the units mod q = len(units), each outside the subgroup
    generated by those before it, so there are at most log2(q) of them.

    Candidates are scanned in increasing order; the first unit outside the
    subgroup is always prime, since a smaller factorisation would put it
    inside."""
    q, phi = len(units), int(np.count_nonzero(units))
    in_group = np.zeros(q, dtype=bool)
    in_group[1] = True
    size, gens = 1, []
    for a in range(2, q):
        if size == phi:
            break
        if in_group[a] or not units[a]:
            continue
        gens.append(a)
        # B, the union of the cosets a^j H for j < t, grows to B with a^t B
        # (t doubling) until a^t lands in B: exactly when B is the new subgroup
        members, step = np.nonzero(in_group)[0], a
        while not in_group[step]:
            new = members * step % q
            new = new[~in_group[new]]
            in_group[new] = True
            members = np.concatenate((members, new))
            step = step * step % q
        size = len(members)
    return gens


def character_table(chi: RealCharacter, lo: int, hi: int):
    """Dense chi(n) for n in [lo, hi] by period lookup."""
    lo, hi = _check_range(lo, hi)
    return DenseValueTable(lo, hi, chi.values(lo, hi).astype(np.int8), label=chi.label)
