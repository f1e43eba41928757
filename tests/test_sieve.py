import re
from bisect import bisect_right
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfreesums import (
    CapacityError,
    DenseValueTable,
    MultiplicativeRule,
    RangeError,
    build_real_character,
    build_spf,
    character_rule,
    introot,
    mobius_rule,
    sieve_kfree_segment,
    sieve_mobius_segment,
    sieve_primes,
)
from kfreesums import sieve
from kfreesums.sieve import (
    MAX_LIMIT,
    MAX_SPF_BYTES,
    MILLER_RABIN_BASES,
    MILLER_RABIN_LIMIT,
    is_prime,
    liouville_kfree_segment,
    segments,
    tiled_window,
    zero_kth_power_multiples,
)

from oracles import (
    factorize_trial,
    is_prime_trial,
    kfree_brute,
    liouville_product_segment,
    mobius_brute,
    primes_eratosthenes,
    primes_trial,
    rule_value_brute,
)


def test_primes_small():
    assert list(sieve_primes(10)) == [2, 3, 5, 7]
    assert list(sieve_primes(2)) == [2]
    assert list(sieve_primes(1)) == []
    assert list(sieve_primes(0)) == []


def test_primes_match_trial_division():
    assert list(sieve_primes(2000)) == primes_trial(2000)


def test_prime_count_1e6():
    # frozen from the one-shot trial-division oracle run
    assert len(sieve_primes(10**6)) == 78498


@lru_cache(maxsize=1)
def primes_past_the_kept_bound():
    return primes_eratosthenes(sieve.KEPT_PRIMES_MAX + 1000)


@settings(max_examples=40, deadline=None)
@given(limits=st.lists(st.one_of(st.integers(-2, 300), st.integers(0, sieve.KEPT_PRIMES_MAX + 1000)),
                       min_size=1, max_size=6))
def test_sieve_primes_in_any_order_match_a_fresh_sieve(limits):
    # the kept table is sieved once, to KEPT_PRIMES_MAX, on first use; a
    # limit past that is sieved afresh and not kept
    expect = primes_past_the_kept_bound()
    sieve._kept_primes.cache_clear()
    for limit in limits:
        primes = sieve_primes(limit)
        assert not primes.flags.writeable
        assert primes.tolist() == expect[: bisect_right(expect, limit)]
    kept = sieve._kept_primes()
    assert sieve._kept_primes.cache_info().misses == 1
    assert kept.tolist() == expect[: bisect_right(expect, sieve.KEPT_PRIMES_MAX)]


@pytest.mark.parametrize("limit, error, message", [
    (2**63, RangeError, f"limit {2**63} exceeds the 2^63-1 cap"),
    (10**12, CapacityError, f"prime sieve to {10**12} needs {10**12 + 1} bytes, budget is {MAX_SPF_BYTES}"),
])
def test_sieve_primes_past_the_kept_bound_keep_their_errors(limit, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        sieve_primes(limit)


@pytest.mark.parametrize("window", [
    lambda lo: sieve_mobius_segment(lo, lo + 100),
    lambda lo: mobius_rule().segment_values(lo, lo + 100),
    lambda lo: sieve._liouville_kfree_progression(lo + 1, 51, 2, 2, None),  # mertens' odd n
], ids=["mobius table", "mobius rule", "odd half"])
def test_a_k2_window_past_the_kept_bound_sieves_its_primes_once(monkeypatch, window):
    # past hi = 2^40, sqrt(hi) = hi^(1/2) is past KEPT_PRIMES_MAX: the
    # zeroing of the p^2 reads the primes the kernel sieved
    fresh = sieve._eratosthenes
    tops = []
    monkeypatch.setattr(sieve, "_eratosthenes", lambda top: tops.append(top) or fresh(top))
    window(2**41)
    assert len(tops) == 1 and tops[0] > sieve.KEPT_PRIMES_MAX


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5 + 1) if is_prime(n)] == [
        n for n in range(-3, 10**5 + 1) if is_prime_trial(n)]
    # one n a side of each base's threshold, where the base count changes
    for _, below in MILLER_RABIN_BASES[:6]:
        for n in range(below - 50, below + 50):
            assert is_prime(n) == is_prime_trial(n), n


def test_is_prime_known_64_bit_values():
    primes = [2**31 - 1, 2**61 - 1, 10**12 + 39, 2**63 - 25, 2**64 - 59, 10**18 + 9]
    assert all(is_prime(p) for p in primes)
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    assert not any(is_prime(n) for n in carmichael)
    small = [2**31 - 1, 10**12 + 39]
    assert not any(is_prime(p * q) for p in small for q in small)
    # each threshold is a composite passing every base before it: one base
    # fewer than the table's count would call it prime
    assert not any(is_prime(below) for _, below in MILLER_RABIN_BASES[:-1])


@pytest.mark.parametrize("n, shown", [(MILLER_RABIN_LIMIT, str(MILLER_RABIN_LIMIT)),
                                      (7.0, "7.0"), ("7", "'7'")])
def test_is_prime_refuses_undecided_input(n, shown):
    with pytest.raises(RangeError, match=shown):
        is_prime(n)


def test_mobius_first_ten():
    assert list(sieve_mobius_segment(1, 10).values) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mobius_single_entry():
    assert list(sieve_mobius_segment(4, 4).values) == [0]


def test_mobius_high_segment_matches_spf_factorization():
    table = sieve_mobius_segment(999991, 1000000)
    spf = build_spf(10**6)
    for n in range(999991, 1000001):
        fac = spf.factorize(n)
        expect = 0 if any(r > 1 for _, r in fac) else (-1) ** len(fac)
        assert table.value_at(n) == expect


def test_mobius_segment_concatenation_matches_one_shot():
    limit = 10**6
    full = sieve_mobius_segment(1, limit).values
    parts = [sieve_mobius_segment(lo, hi).values for lo, hi in segments(1, limit, 2**17)]
    assert np.array_equal(np.concatenate(parts), full)


# windows up to 5*10^9, with some either side of 2^32, against trial division
@settings(max_examples=30, deadline=None)
@given(
    lo=st.integers(1, 10**3) | st.integers(1, 5 * 10**9) | st.integers(2**32 - 64, 2**32 + 64),
    size=st.integers(1, 256),
    k=st.sampled_from((None, 2, 3, 4)),
)
def test_liouville_kfree_segment_matches_brute_force(lo, size, k):
    hi = lo + size - 1
    vals = liouville_kfree_segment(lo, hi, k)
    assert vals.dtype == np.int8
    if k == 2:
        expect = [mobius_brute(n) for n in range(lo, hi + 1)]
        assert sieve_mobius_segment(lo, hi).values.tolist() == expect
    else:
        rule = MultiplicativeRule(base=-1, k_truncation=k)
        expect = [rule_value_brute(rule, n) for n in range(lo, hi + 1)]
    assert vals.tolist() == expect


def odd_half(lo, hi, k):
    """The kernel at step 2 over the odd n of [lo, hi]; [lo, hi]'s own
    values at [(lo + 1) % 2 :: 2] are the same n."""
    size = (hi - (lo | 1)) // 2 + 1
    if size < 1:
        return np.empty(0, dtype=np.int8)
    return sieve._liouville_kfree_progression(lo | 1, size, 2, k, None)


def assert_liouville_window(lo, hi, k, expect):
    """The kernel over [lo, hi], and at step 2 over its odd n, equal expect."""
    assert np.array_equal(liouville_kfree_segment(lo, hi, k), expect), (lo, hi)
    assert np.array_equal(odd_half(lo, hi, k), expect[(lo + 1) % 2 :: 2]), (lo, hi, "odd")


@pytest.mark.parametrize("k", [None, 2, 3, 4])
def test_liouville_kfree_segment_every_small_window(k):
    # below hi = 8 the log test's margin is not proved, so every window
    # there, and on to hi = 64, is checked
    primes = np.array(primes_trial(8))
    for hi in range(1, 65):
        for lo in range(1, hi + 1):
            assert_liouville_window(lo, hi, k, liouville_product_segment(lo, hi, k, primes))


# the log threshold changes at each 2^m, so a window across one compares
# on two ranges
@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(3, 40),
    below=st.integers(0, 200),
    above=st.integers(0, 200),
    k=st.sampled_from((None, 2, 3, 4)),
)
def test_liouville_kfree_segment_matches_product_across_powers_of_two(m, below, above, k):
    lo, hi = max(1, 2**m - below), 2**m + above
    primes = np.array(primes_eratosthenes(isqrt(hi)), dtype=np.int64)
    vals = liouville_kfree_segment(lo, hi, k)
    assert vals.flags.writeable and vals.dtype == np.int8
    assert_liouville_window(lo, hi, k, liouville_product_segment(lo, hi, k, primes))


@pytest.mark.parametrize("k", [None, 2, 3])
@pytest.mark.parametrize("lo, hi", [
    (2**40 - 100, 2**40 + 100), (2**40 - 1, 2**40), (10**12 - 100, 10**12 + 100), (10**12, 10**12),
    (1009 * 10**9 - 200, 1009 * 10**9),  # the prime 1009 hits the window at hi only
])
def test_liouville_kfree_segment_matches_product_at_large_offsets(lo, hi, k):
    primes = np.array(primes_eratosthenes(isqrt(hi)), dtype=np.int64)
    assert_liouville_window(lo, hi, k, liouville_product_segment(lo, hi, k, primes))


@pytest.fixture(scope="module")
def primes_to_2_25():
    return sieve_primes(2**25)


@pytest.mark.parametrize("k", [None, 2, 3])
def test_liouville_kfree_segment_packs_high_hit_counts(k, primes_to_2_25):
    # the kernel counts prime-power hits in its accumulator's low byte;
    # Omega(2^50) = 50 is the largest count the tests reach
    lo, hi = 2**50 - 64, 2**50 + 64
    assert_liouville_window(lo, hi, k, liouville_product_segment(lo, hi, k, primes_to_2_25))


# windows from one before to one after a multiple of the kernel's wheel
# period 30030, one value, one period and two periods long, and their odd
# n, on the odd wheel of period 15015; 30030 j passes 2^32 from j = 143023
# on, and j itself past 2^32
@pytest.mark.parametrize("j", [1, 2, 143023, 2**32 + 1])
@pytest.mark.parametrize("k", [None, 2, 3])
def test_liouville_kfree_segment_across_wheel_periods(j, k):
    base, top = 30030 * j - 1, 30030 * j + 1 + 60060
    primes = sieve_primes(isqrt(top))
    expect = liouville_product_segment(base, top, k, primes)
    for lo in (base, base + 1, base + 2):
        for size in (1, 30030, 60061):
            assert_liouville_window(lo, lo + size - 1, k, expect[lo - base : lo - base + size])
    if k == 2 and j < 2**32:  # trial division near 10^14 is too slow
        near = [n for n in range(base, top + 1) if min(n % 30030, -n % 30030) <= 2]
        assert [int(expect[n - base]) for n in near] == [mobius_brute(n) for n in near]


@pytest.mark.parametrize("lo, hi", [
    (10**12 - 100, 10**12 + 100), (2**40 - 100, 2**40 + 100), (1, 5000),
    (1009 * 10**9 - 201, 1009 * 10**9 - 1),  # 1009 first hits at hi + 1
    (1009 * 10**9 - 1008, 1009 * 10**9 + 1008),  # 1009 hits only the even n 1009 * 10^9
])
def test_liouville_kfree_segment_visits_only_primes_hitting_the_window(lo, hi, monkeypatch):
    # each visited prime takes one quarter-bit log; a prime with no multiple
    # in the window takes none, and at step 2 one with no odd multiple
    primes = sieve_primes(isqrt(hi))
    visited = []
    real = sieve._quarter_log2
    monkeypatch.setattr(sieve, "_quarter_log2", lambda p: visited.append(p) or real(p))
    liouville_kfree_segment(lo, hi, 2)
    assert visited == [p for p in primes.tolist() if -lo % p <= hi - lo]
    visited.clear()
    odd_half(lo, hi, 2)
    assert visited == [p for p in primes.tolist() if any(n % 2 for n in range(lo + -lo % p, hi + 1, p))]


def test_liouville_kfree_order_validation():
    with pytest.raises(RangeError, match="truncation order k must be >= 2, got 1"):
        liouville_kfree_segment(1, 10, 1)


def test_mobius_unit_identity_by_divisor_enumeration():
    # sum_{d|n} mu(d) = [n == 1], accumulated by an explicit divisor walk
    limit = 10**5
    mu = sieve_mobius_segment(1, limit).values.astype(np.int64)
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        if mu[d - 1]:
            acc[d::d] += mu[d - 1]
    assert acc[1] == 1
    assert not acc[2:].any()


def test_mobius_unit_identity_brute_small():
    for n in range(1, 3001):
        total = sum(mobius_brute(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_squarefree_density():
    limit = 10**6
    count = int(np.sum(sieve_mobius_segment(1, limit).values != 0))
    assert abs(count / limit - 6 / np.pi**2) < 0.002


@settings(max_examples=200, deadline=None)
@given(period=st.integers(1, 5000), copies=st.integers(1, 3), lo=st.integers(1, 10**12),
       size=st.integers(0, 20000))
def test_tiled_window_matches_np_tile(period, copies, lo, size):
    block = np.arange(period * copies, dtype=np.int16) % period
    hi = lo + size - 1
    expect = np.tile(block[:period], -(-(lo % period + size) // period))[lo % period :][:size]
    assert np.array_equal(tiled_window(block, period, lo, hi), expect)
    out = np.full(size, -1, dtype=np.int16)
    assert tiled_window(block, period, lo, hi, out=out) is out
    assert np.array_equal(out, expect)


def test_kfree_small_cases():
    assert list(sieve_kfree_segment(1, 8, 3).values) == [1, 1, 1, 1, 1, 1, 1, 0]
    assert list(sieve_kfree_segment(12, 12, 2).values) == [0]


def test_kfree_matches_brute_marking():
    limit = 10**5
    table = sieve_kfree_segment(1, limit, 4)
    marked = np.ones(limit + 1, dtype=np.int8)
    for p in primes_trial(introot(limit, 4)):
        marked[p**4 :: p**4] = 0
    assert int(np.sum(table.values)) == int(np.sum(marked[1:]))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kfree_downward_closure(k):
    # mu_k^2(n) = 1 iff every divisor of n is k-free too
    limit = 10**4
    table = sieve_kfree_segment(1, limit, k)
    rng = np.random.RandomState(k)
    for n in rng.randint(1, limit + 1, size=200):
        n = int(n)
        expected = all(kfree_brute(d, k) for d in range(1, n + 1) if n % d == 0)
        assert bool(table.value_at(n)) == expected


def test_kfree_order_validation():
    with pytest.raises(RangeError, match="k-free order k must be >= 2, got 1"):
        sieve_kfree_segment(1, 10, 1)
    with pytest.raises(RangeError, match="k-free order k 2.5 is not an integer"):
        sieve_kfree_segment(1, 10, 2.5)


def test_kfree_sieve_takes_any_order():
    # 2^61 is the one n in the window that 2^61 divides
    lo = 2**61 - 5
    table = sieve_kfree_segment(lo, 2**61 + 5, 61)
    assert [lo + i for i, v in enumerate(table.values.tolist()) if v == 0] == [2**61]
    assert sieve_kfree_segment(1, 10**4, 10**9).values.tolist() == [1] * 10**4


@settings(max_examples=200, deadline=None)
@given(lo=st.one_of(st.integers(1, 10**4), st.integers(1, 10**10)),
       size=st.integers(1, 3000), k=st.integers(2, 5))
def test_zero_kth_power_multiples_matches_marking(lo, size, k):
    # powers shorter and longer than the window, and entries that are not 1
    hi = lo + size - 1
    vals = (np.arange(size) % 7 - 3).astype(np.int8)
    expect = vals.copy()
    for p in primes_trial(introot(hi, k)):
        expect[-lo % p**k :: p**k] = 0
    zero_kth_power_multiples(vals, lo, k)
    assert np.array_equal(vals, expect)


def test_spf_basics():
    spf = build_spf(10)
    assert int(spf.spf[9]) == 3
    assert int(spf.spf[7]) == 7
    assert int(spf.spf[1]) == 1


def test_spf_reconstruction():
    spf = build_spf(10**6)
    rng = np.random.RandomState(11)
    for n in rng.randint(2, 10**6, size=300):
        n = int(n)
        fac = spf.factorize(n)
        prod = 1
        for p, r in fac:
            prod *= p**r
        assert prod == n
        assert fac == factorize_trial(n)


def test_spf_capacity_error():
    # refused before any allocation; the message names the size and the budget
    with pytest.raises(CapacityError, match=f"needs 4000000004 bytes, budget is {MAX_SPF_BYTES}"):
        build_spf(10**9)


def test_range_rejections():
    with pytest.raises(RangeError):
        sieve_mobius_segment(0, 10)
    with pytest.raises(RangeError):
        sieve_mobius_segment(10, 5)
    with pytest.raises(RangeError):
        sieve_mobius_segment(1, MAX_LIMIT + 1)


_CHI3 = build_real_character(3)


@pytest.mark.parametrize("call, shown", [
    (lambda: sieve_mobius_segment(1.5, 10), "lo 1.5"),
    (lambda: sieve_mobius_segment(1, "10"), "hi '10'"),
    (lambda: sieve_kfree_segment(1, 10.0, 2), "hi 10.0"),
    (lambda: liouville_kfree_segment(None, 10, 2), "lo None"),
    (lambda: DenseValueTable(1.0, 2, np.zeros(2, np.int8)), "lo 1.0"),
    (lambda: character_rule(_CHI3, k=2).values(1.5, 10), "lo 1.5"),
    (lambda: character_rule(_CHI3).segment_values(1, 10.5), "hi 10.5"),
    (lambda: mobius_rule().segment_values(2.0, 10), "lo 2.0"),
    (lambda: sieve_primes(10.5), "limit 10.5"),
    (lambda: sieve_primes("10"), "limit '10'"),
    (lambda: build_spf(1e3), "limit 1000.0"),
    (lambda: introot(10.0, 2), "introot argument 10.0"),
    (lambda: introot(10, 2.0), "introot order 2.0"),
    (lambda: list(segments(1, 10, 2.5)), "segment_size 2.5"),
])
def test_sieve_bounds_must_be_integers(call, shown):
    with pytest.raises(RangeError, match=re.escape(shown) + " is not an integer$"):
        call()


def test_sieve_bounds_accept_integer_types():
    assert sieve_primes(np.int64(10)).tolist() == [2, 3, 5, 7]
    assert sieve_mobius_segment(np.int32(1), np.uint8(4)).values.tolist() == [1, -1, -1, 0]
    assert introot(np.int64(10**10), np.int8(5)) == 100
    assert build_spf(np.int16(12)).factorize(12) == [(2, 2), (3, 1)]


def test_value_table_immutable_and_bounds():
    table = sieve_mobius_segment(1, 10)
    with pytest.raises(ValueError):
        table.values[0] = 7
    with pytest.raises(RangeError):
        table.value_at(11)


def test_table_csv_dump(tmp_path):
    table = sieve_mobius_segment(1, 5)
    path = tmp_path / "mu.csv"
    table.to_csv(path)
    assert path.read_text().splitlines() == ["n,value", "1,1", "2,-1", "3,-1", "4,0", "5,-1"]


def test_introot_exactness():
    assert introot(10**10, 5) == 100
    assert introot(2**60 - 1, 60) == 1
    assert introot(2**60, 60) == 2
    assert introot(128, 7) == 2
    assert introot(127, 7) == 1
    # float powers misclassify near-powers; the exact path must not
    n = (10**6 - 1) ** 3
    assert introot(n, 3) == 10**6 - 1
    assert introot(n - 1, 3) == 10**6 - 2


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, MAX_LIMIT), k=st.integers(1, 60))
def test_introot_brackets_n(n, k):
    r = introot(n, k)
    assert r**k <= n < (r + 1) ** k
