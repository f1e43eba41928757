import numpy as np
import pytest

from kfreesums import (
    CharacterConstructionError,
    build_real_character,
    character_table,
    kronecker_symbol,
)
from kfreesums.characters import _unit_generators, _valid_period_table

from oracles import kronecker_brute, legendre_euler


def test_kronecker_identity_cases():
    for d in (-7, -3, 1, 5, 12):
        assert kronecker_symbol(d, 1) == 1
    assert kronecker_symbol(5, 5) == 0
    assert kronecker_symbol(-3, 2) == -1  # 2 is a non-residue pattern mod 3


def test_kronecker_against_brute_recursion():
    for d in range(-30, 31):
        for n in range(0, 60):
            assert kronecker_symbol(d, n) == kronecker_brute(d, n), (d, n)


def test_chi3_period():
    chi = build_real_character(3)
    assert chi.value(1) == 1 and chi.value(2) == -1 and chi.value(3) == 0
    # the principal character mod 3 is multiplicative and vanishes off the
    # units, but its period sums to 2, not 0
    assert not _valid_period_table(3, np.array([0, 1, 1]))


def test_chi5_is_legendre():
    chi = build_real_character(5)
    assert [chi.value(n) for n in range(1, 6)] == [1, -1, -1, 1, 0]


def test_chi4_period():
    chi = build_real_character(4)
    assert chi.value(1) == 1 and chi.value(3) == -1
    assert chi.value(2) == 0 and chi.value(4) == 0


def test_unsupported_moduli_raise():
    # prime-square and 2-power moduli beyond 8 carry no primitive real character
    for q in (9, 16, 18, 25):
        with pytest.raises(CharacterConstructionError) as err:
            build_real_character(q)
        assert str(q) in str(err.value)


def test_squarefree_composite_modulus_supported():
    chi = build_real_character(15)
    assert chi.discriminant == -15
    assert chi.value(2) == 1 and chi.value(7) == -1
    assert chi.value(3) == 0 and chi.value(5) == 0


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_legendre_consistency_odd_primes(q):
    chi = build_real_character(q)
    for r in range(q):
        assert chi.value(r) == legendre_euler(r, q)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 7, 12])
def test_bounded_partial_sums(q):
    chi = build_real_character(q)
    vals = chi.values(1, 10**5).astype(np.int64)
    prefix = np.cumsum(vals)
    assert int(np.max(np.abs(prefix))) <= q


def test_multiplicativity_fuzz():
    chi = build_real_character(3)
    rng = np.random.RandomState(3)
    m = rng.randint(1, 10**6, size=10**4).astype(np.int64)
    n = rng.randint(1, 10**6, size=10**4).astype(np.int64)
    q = chi.modulus
    lhs = chi.period_values[(m * n) % q]
    rhs = chi.period_values[m % q] * chi.period_values[n % q]
    assert np.array_equal(lhs, rhs)


def test_period_table_check_is_exact_past_512():
    # q = 1657 > 512: swapping chi(972) = 1 and chi(1025) = -1 keeps the
    # period sum 0 and the zeros in place, so only multiplicativity rejects it
    q, u, v = 1657, 972, 1025
    table = build_real_character(q).period_values.copy()
    assert (table[u], table[v]) == (1, -1)
    table[[u, v]] = table[[v, u]]
    # 4096 pairs sampled from RandomState(q), as the check drew them for
    # q > 512, never touch u or v and accept the swapped table
    rng = np.random.RandomState(q)
    a = rng.randint(0, q, size=4096)
    b = rng.randint(0, q, size=4096)
    assert np.array_equal(table[(a * b) % q], table[a] * table[b])
    assert not _valid_period_table(q, table)


def test_unit_generators_generate_the_units():
    for q in (3, 8, 12, 24, 105, 1657, 4096):
        units = np.gcd(np.arange(q), q) == 1
        gens = _unit_generators(units)
        assert len(gens) <= q.bit_length()
        group = {1}
        for g in gens:
            assert g not in group
            while True:
                grown = group | {x * g % q for x in group}
                if grown == group:
                    break
                group = grown
        assert group == {r for r in range(q) if units[r]}


def test_vanishing_exactly_off_units():
    for q in (3, 4, 5, 8, 12):
        chi = build_real_character(q)
        for n in range(1, 3 * q):
            assert (chi.value(n) == 0) == (np.gcd(n, q) > 1)


def test_character_table_periodicity():
    chi = build_real_character(3)
    assert list(character_table(chi, 1, 6).values) == [1, -1, 0, 1, -1, 0]
    assert character_table(chi, 10**6, 10**6).value_at(10**6) == 1


def test_full_period_cancellation():
    chi = build_real_character(5)
    vals = chi.values(1, 25).astype(np.int64)
    prefix = np.cumsum(vals)
    for y in (5, 10, 15, 20, 25):
        assert prefix[y - 1] == 0


def test_exact_partial_sum_helper():
    chi = build_real_character(7)
    vals = chi.values(1, 200).astype(np.int64)
    prefix = np.cumsum(vals)
    for y in range(1, 201):
        assert chi.partial_sum(y) == int(prefix[y - 1])
    assert chi.max_abs_partial_sum() == int(np.max(np.abs(prefix[:7])))


def test_q_divisor_primes():
    assert build_real_character(12).q_divisor_primes() == [2, 3]
    assert build_real_character(3).q_divisor_primes() == [3]
