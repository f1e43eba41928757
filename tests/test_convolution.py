import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfreesums import (
    CapacityError,
    DenseValueTable,
    ModificationPlan,
    NonInvertibleError,
    ShapeError,
    build_real_character,
    character_rule,
    character_table,
    deviation_factor,
    dirichlet_convolve,
    dirichlet_inverse,
    kfree_factor,
    modified_character,
    one_rule,
    pointwise_product,
    sieve_mobius_segment,
)

from oracles import (
    convolve_at,
    dirichlet_convolve_loop,
    dirichlet_inverse_loop,
    divisors,
    primes_trial,
)


@pytest.fixture(scope="module")
def chi3():
    return build_real_character(3)


def ones_table(n):
    return DenseValueTable(1, n, np.ones(n, dtype=np.int8), label="one")


def unit_vector(n):
    eps = np.zeros(n + 1, dtype=np.int64)
    eps[1] = 1
    return eps


def test_mobius_inversion_identity():
    n = 1000
    conv = dirichlet_convolve(sieve_mobius_segment(1, n), ones_table(n))
    assert np.array_equal(conv.values, unit_vector(n))


def test_divisor_count():
    conv = dirichlet_convolve(ones_table(100), ones_table(100))
    assert conv.value_at(6) == 4
    for n in (1, 12, 36, 97):
        assert conv.value_at(n) == len(divisors(n))


def test_character_times_inverse_is_unit(chi3):
    n = 1000
    chi_t = character_table(chi3, 1, n)
    mu_chi = pointwise_product(sieve_mobius_segment(1, n), chi_t)
    assert np.array_equal(dirichlet_convolve(chi_t, mu_chi).values, unit_vector(n))


def test_convolve_matches_divisor_enumeration(chi3):
    n = 400
    a = character_table(chi3, 1, n)
    b = sieve_mobius_segment(1, n)
    conv = dirichlet_convolve(a, b)
    for m in range(1, n + 1):
        assert conv.value_at(m) == convolve_at(a.value_at, b.value_at, m)


def test_convolve_refuses_to_wrap_int64():
    # int64 sums wrapped the exact (a * a)(1) = 2^124 to 0
    big = DenseValueTable(1, 10, np.full(10, 2**62, dtype=np.int64))
    with pytest.raises(CapacityError, match=f"convolution value at n=1 is {2**124},"):
        dirichlet_convolve(big, big)


def test_algebra_names_an_operand_value_outside_int64():
    # object values past int64 raised an untyped OverflowError in astype
    big = DenseValueTable(1, 3, np.array([1, 5, 2**70], dtype=object))
    ones = DenseValueTable(1, 3, np.ones(3, dtype=np.int8))
    with pytest.raises(CapacityError, match=f"left operand value at n=3 is {2**70},"):
        dirichlet_convolve(big, ones)
    with pytest.raises(CapacityError, match=f"right operand value at n=3 is {2**70},"):
        dirichlet_convolve(ones, big)
    with pytest.raises(CapacityError, match=f"^operand value at n=3 is {2**70},"):
        dirichlet_inverse(big)
    # object and uint64 values inside int64 are read as they are
    small = DenseValueTable(1, 3, np.array([1, 5, -7], dtype=object))
    assert dirichlet_inverse(small).values.tolist() == [0, 1, -5, 7]
    unsigned = DenseValueTable(1, 3, np.array([1, 5, 2**63], dtype=np.uint64))
    with pytest.raises(CapacityError, match=f"n=3 is {2**63},"):
        dirichlet_convolve(unsigned, ones)


def test_convolve_at_the_int64_bound():
    ones = DenseValueTable(1, 2, np.ones(2, dtype=np.int8))
    # N max|a| max|b| = 2^63 - 2 runs in int64, and 2 (2^62 - 1) fits
    inside = DenseValueTable(1, 2, np.full(2, 2**62 - 1, dtype=np.int64))
    assert dirichlet_convolve(inside, ones).values.tolist() == [0, 2**62 - 1, 2**63 - 2]
    # past the bound the sums run in Python ints: -2^63 fits, 2^63 does not
    low = DenseValueTable(1, 2, np.full(2, -(2**62), dtype=np.int64))
    assert dirichlet_convolve(low, ones).values.tolist() == [0, -(2**62), -(2**63)]
    high = DenseValueTable(1, 2, np.full(2, 2**62, dtype=np.int64))
    with pytest.raises(CapacityError, match=f"n=2 is {2**63},"):
        dirichlet_convolve(high, ones)


def test_convolve_shape_errors(chi3):
    with pytest.raises(ShapeError):
        dirichlet_convolve(ones_table(10), ones_table(11))
    with pytest.raises(ShapeError):
        dirichlet_convolve(character_table(chi3, 2, 10), ones_table(9))


def test_inverse_of_ones_is_mobius():
    n = 2000
    inv = dirichlet_inverse(ones_table(n))
    assert np.array_equal(inv.values[1:], sieve_mobius_segment(1, n).values.astype(np.int64))


def test_inverse_of_character_is_mu_chi(chi3):
    n = 1000
    chi_t = character_table(chi3, 1, n)
    mu_chi = pointwise_product(sieve_mobius_segment(1, n), chi_t)
    inv = dirichlet_inverse(chi_t)
    assert np.array_equal(inv.values[1:], mu_chi.values.astype(np.int64))


def test_inverse_round_trip(chi3):
    n = 1000
    f = character_rule(chi3, k=2).values(1, n)
    back = dirichlet_inverse(dirichlet_inverse(f).as_table())
    assert np.array_equal(back.values[1:], f.values.astype(np.int64))


def test_inverse_rejects_non_units():
    vals = np.zeros(10, dtype=np.int8)
    with pytest.raises(NonInvertibleError):
        dirichlet_inverse(DenseValueTable(1, 10, vals))
    vals2 = np.full(10, 2, dtype=np.int8)
    with pytest.raises(NonInvertibleError):
        dirichlet_inverse(DenseValueTable(1, 10, vals2))


def test_inverse_refuses_to_wrap_int64():
    # the exact a^-1(512) of this table is 9815844098731540608 > 2^63 - 1;
    # an int64 recursion wrapped it to -8630899974978011008
    vals = np.full(1024, -128, dtype=np.int8)
    vals[0] = 1
    with pytest.raises(CapacityError, match="n=512 is 9815844098731540608"):
        dirichlet_inverse(DenseValueTable(1, 1024, vals))
    # every value below 512 fits, and the checked path returns it exactly
    inv = dirichlet_inverse(DenseValueTable(1, 511, vals[:511]))
    for n in (2, 4, 256, 384, 511):
        assert inv.value_at(n) == -sum(
            -128 * inv.value_at(d) for d in divisors(n) if d < n
        )


# |a(d)| <= 128 bounds |a^-1(n)| by 128^Omega(n) times the number of ordered
# factorisations of n, which stays below 2^57 for every n <= 300
INT8 = st.integers(-128, 127)


@st.composite
def int8_tables(draw, at_one):
    n = draw(st.integers(1, 300))
    rest = draw(st.lists(INT8, min_size=n - 1, max_size=n - 1))
    return DenseValueTable(1, n, np.array([draw(at_one)] + rest, dtype=np.int8))


@settings(max_examples=40, deadline=None)
@given(a=int8_tables(st.sampled_from((-1, 1))))
def test_inverse_property(a):
    inv = dirichlet_inverse(a)
    for n in range(1, a.hi + 1):
        assert convolve_at(a.value_at, inv.value_at, n) == (n == 1), n
    back = dirichlet_inverse(inv.as_table())
    assert back.values[1:].tolist() == a.values.tolist()


# N at the edges of the inverse's dyadic blocks (2^j - 1, 2^j, 2^j + 1) and
# of the hyperbola split at r = isqrt(N) (r^2 - 1, r^2, r^2 + 1)
EDGE_N = sorted(
    m for m in {2**j + e for j in range(1, 13) for e in (-1, 0, 1)}
    | {r * r + e for r in range(1, 71) for e in (-1, 0, 1)}
    if 1 <= m <= 5000
)


def _first_outside_int64(values: list[int]):
    return next(((n, v) for n, v in enumerate(values, 1) if not -(2**63) <= v < 2**63), None)


# |a(d)| <= 3 keeps n^2 A^(log2 n) inside int64 for n <= 5000, 16 and 128 run
# the Python-int path, where 128 mostly leaves int64 and must raise
@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(EDGE_N), a1=st.sampled_from((-1, 1)),
       top=st.sampled_from((1, 3, 16, 128)), seed=st.integers(0, 2**32 - 1))
def test_inverse_equals_reference_loop(n, a1, top, seed):
    vals = np.random.default_rng(seed).integers(-top, top, n, endpoint=True)
    vals = vals.clip(-128, 127).astype(np.int8)
    vals[0] = a1
    exact = dirichlet_inverse_loop(vals.tolist())
    outside = _first_outside_int64(exact)
    if outside:
        with pytest.raises(CapacityError, match=f"inverse value at n={outside[0]} is {outside[1]},"):
            dirichlet_inverse(DenseValueTable(1, n, vals))
    else:
        assert dirichlet_inverse(DenseValueTable(1, n, vals)).values[1:].tolist() == exact


# a is an int8 table shifted left: 0 keeps N max|a| max|b| inside int64, 40
# crosses it within the range of N, 48 runs in Python ints and mostly fits,
# 56 mostly leaves int64 and must raise
@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(EDGE_N), shift=st.sampled_from((0, 40, 48, 56)),
       seed=st.integers(0, 2**32 - 1))
def test_convolve_equals_reference_loop(n, shift, seed):
    rng = np.random.default_rng(seed)
    av = rng.integers(-128, 128, n).astype(np.int64) << shift
    bv = rng.integers(-128, 128, n).astype(np.int8)
    exact = dirichlet_convolve_loop(av.tolist(), bv.tolist())
    a, b = DenseValueTable(1, n, av), DenseValueTable(1, n, bv)
    outside = _first_outside_int64(exact)
    if outside:
        with pytest.raises(CapacityError, match=f"convolution value at n={outside[0]} is {outside[1]},"):
            dirichlet_convolve(a, b)
    else:
        assert dirichlet_convolve(a, b).values[1:].tolist() == exact


@settings(max_examples=10, deadline=None)
@given(a=int8_tables(st.just(0)))
def test_inverse_property_rejects_non_unit_at_one(a):
    for a1 in range(-128, 128):
        if a1 not in (-1, 1):
            vals = a.values.copy()
            vals[0] = a1
            with pytest.raises(NonInvertibleError, match=f"a\\(1\\) = {a1} "):
                dirichlet_inverse(DenseValueTable(1, a.hi, vals))


def test_pointwise_product_basics(chi3):
    n = 1000
    mu = sieve_mobius_segment(1, n)
    sq = pointwise_product(mu, mu)
    assert list(sq.values[:10]) == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1]
    with pytest.raises(ShapeError):
        pointwise_product(mu, ones_table(999))


def test_kfree_factor_prime_power_values(chi3):
    g = modified_character(ModificationPlan(character=chi3))
    h2 = kfree_factor(2, g, 100)
    assert h2.value_at(4) == -1   # mu(2)
    assert h2.value_at(2) == 0
    assert h2.value_at(16) == 0   # mu(4) = 0
    h3 = kfree_factor(3, g, 100)
    assert h3.value_at(8) == -g.prime_value(2)


def test_kfree_factor_equals_convolution_route(chi3):
    n = 10**4
    g = modified_character(ModificationPlan(character=chi3))
    g_t = g.values(1, n)
    f_t = g.truncated(2).values(1, n)
    oracle = dirichlet_convolve(f_t, dirichlet_inverse(g_t).as_table())
    assert np.array_equal(
        kfree_factor(2, g, n).values.astype(np.int64), oracle.values[1:]
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kfree_restriction_factorization(chi3, k):
    n = 10**4
    for g in (
        modified_character(ModificationPlan(character=chi3)),
        modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 11))),
        character_rule(chi3),  # bare character: vanishing base values allowed
    ):
        conv = dirichlet_convolve(g.values(1, n), kfree_factor(k, g, n))
        target = g.truncated(k).values(1, n).values.astype(np.int64)
        assert np.array_equal(conv.values[1:], target), (k, g.label)


def test_deviation_factor_matches_convolution(chi3):
    n = 10**4
    for flips in ((), (5, 11)):
        g = modified_character(ModificationPlan(character=chi3, flipped_primes=flips))
        mu_g = pointwise_product(sieve_mobius_segment(1, n), g.values(1, n))
        oracle = dirichlet_convolve(mu_g, character_table(chi3, 1, n))
        dev = deviation_factor(g, chi3, n)
        assert np.array_equal(dev.values.astype(np.int64), oracle.values[1:])


def test_deviation_factor_prime_power_law(chi3):
    n = 10**4
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 11)))
    dev = deviation_factor(g, chi3, n)
    for p in primes_trial(100):
        expect_mag = abs(1 - g.prime_value(p) * chi3.value(p))
        pr = p
        first = True
        while pr <= n:
            if first or chi3.value(p) != 0:
                assert abs(dev.value_at(pr)) == expect_mag, (p, pr)
            else:
                assert dev.value_at(pr) == 0, (p, pr)  # chi(p)=0 kills r >= 2
            pr *= p
            first = False


def test_deviation_factor_needs_its_base_character(chi3):
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5,)))
    with pytest.raises(ShapeError, match=r"'g\[chi_3;flip 5\]' needs the base character chi_5"):
        deviation_factor(g, build_real_character(5), 100)
    with pytest.raises(ShapeError, match="'one' needs the base character chi_3"):
        deviation_factor(one_rule(), chi3, 100)
    with pytest.raises(ShapeError, match="untruncated"):
        deviation_factor(g.truncated(2), chi3, 100)


def test_deviation_magnitudes_bounded(chi3):
    # the factor g conv (mu chi) obeys |h(p)| <= 2 and |h(p^r)| <= |h(p)|,
    # with |h(p^r)| = |1 - g(p) chi(p)| at every prime power in range
    n = 10**4
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 11)))
    mu_chi = pointwise_product(sieve_mobius_segment(1, n), character_table(chi3, 1, n))
    h = dirichlet_convolve(g.values(1, n), mu_chi)
    for p in primes_trial(n):
        hp = abs(h.value_at(p))
        assert hp <= 2
        pr = p
        while pr <= n:
            assert abs(h.value_at(pr)) <= hp
            assert abs(h.value_at(pr)) == abs(1 - g.prime_value(p) * chi3.value(p))
            pr *= p
