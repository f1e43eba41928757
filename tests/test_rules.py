import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfreesums import (
    CharacterConstructionError,
    ConfigError,
    DeviationBudget,
    EnvelopeSpec,
    ModificationPlan,
    MultiplicativeRule,
    PlanError,
    RangeError,
    build_real_character,
    build_spf,
    character_rule,
    direct_summatory,
    kfree_factor,
    kfree_hyperbola_sum,
    mobius_rule,
    modified_character,
    one_rule,
    optimal_split,
    sieve_kfree_segment,
    sieve_mobius_segment,
    sqrt_split,
)
from kfreesums import rules
from kfreesums.characters import COMPLETED_PERIOD_MAX
from kfreesums.convolution import kfree_factor_at_powers
from kfreesums.sieve import MAX_LIMIT, liouville_kfree_segment

from oracles import kfree_sum_sublinear, kronecker_brute, rule_value_brute


@pytest.fixture(scope="module")
def chi3():
    return build_real_character(3)


@pytest.fixture(scope="module")
def spf():
    return build_spf(10**6)


def test_evaluate_examples(chi3, spf):
    f = character_rule(chi3, k=2)
    assert f.evaluate(10, spf) == 1    # squarefree, 10 = 1 mod 3
    assert f.evaluate(12, spf) == 0    # 4 | 12
    assert character_rule(chi3, k=3).evaluate(8, spf) == 0  # 2^3 | 8


def test_evaluate_out_of_range(chi3):
    small = build_spf(100)
    with pytest.raises(RangeError):
        character_rule(chi3).evaluate(101, small)


def test_value_at_one_is_one(chi3, spf):
    for rule in (character_rule(chi3), mobius_rule(), one_rule(),
                 character_rule(chi3, k=4)):
        assert rule.evaluate(1, spf) == 1


def test_mobius_rule_equals_sieve(spf):
    # the alternating base truncated at squares reproduces mu
    vals = mobius_rule().segment_values(1, 5000)
    assert np.array_equal(vals, sieve_mobius_segment(1, 5000).values)


def test_streaming_matches_evaluate_fuzz(chi3, spf):
    plan = ModificationPlan(character=chi3, flipped_primes=(5, 11))
    rules = [
        character_rule(chi3),
        character_rule(chi3, k=2),
        modified_character(plan),
        modified_character(plan).truncated(3),
        mobius_rule(),
        one_rule(),
    ]
    rng = np.random.RandomState(17)
    ns = rng.randint(1, 10**6, size=200)
    for rule in rules:
        lo, hi = 10**5 + 1, 10**5 + 512
        seg = rule.segment_values(lo, hi)
        for i, n in enumerate(range(lo, hi + 1)):
            if i % 37 == 0:
                assert int(seg[i]) == rule.evaluate(n, spf)
        for n in ns[:40]:
            n = int(n)
            assert rule.evaluate(n, spf) == rule_value_brute(rule, n)


def test_factorization_consistency_large_fuzz(chi3, spf):
    rule = modified_character(
        ModificationPlan(character=chi3, flipped_primes=(7, 13))
    ).truncated(2)
    rng = np.random.RandomState(23)
    for n in rng.randint(1, 10**6, size=10**4):
        n = int(n)
        prod = 1
        for p, r in spf.factorize(n):
            prod *= rule.prime_power_value(p, r)
        assert rule.evaluate(n, spf) == prod


def test_truncation_kills_high_powers(chi3):
    rule = character_rule(chi3, k=3)
    assert rule.prime_power_value(2, 3) == 0
    assert rule.prime_power_value(2, 2) == 1  # (-1)^2
    assert rule.prime_power_value(2, 1) == -1


def test_override_validation(chi3):
    with pytest.raises(PlanError):
        character_rule(chi3).truncated(1)
    from kfreesums import MultiplicativeRule

    with pytest.raises(PlanError):
        MultiplicativeRule(base=chi3, overrides={4: 1})
    with pytest.raises(PlanError):
        MultiplicativeRule(base=chi3, overrides={5: 2})
    with pytest.raises(PlanError):
        MultiplicativeRule(base=3)


def test_truncation_keeps_custom_labels(chi3):
    rule = MultiplicativeRule(base=-1, label="constant -1")
    assert rule.truncated(2).label == "mu_2^2*constant -1"
    assert rule.truncated(2).without_truncation().label == "constant -1"
    assert rule.truncated(2).truncated(3).label == "mu_3^2*constant -1"
    assert character_rule(chi3, 2).without_truncation().label == "chi_3"
    # a truncated rule's own label names the truncated function
    assert mobius_rule().without_truncation().label == "const-1"
    assert mobius_rule().truncated(3).label == "mu_3^2*const-1"


def test_unit_valued_detection(chi3):
    assert not character_rule(chi3).is_unit_valued()
    g = modified_character(ModificationPlan(character=chi3))
    assert g.is_unit_valued()
    assert mobius_rule().without_truncation().is_unit_valued()


def test_segment_values_with_large_override_prime(chi3, spf):
    # override prime above sqrt(hi) must still be peeled correctly
    p = 1009
    from kfreesums import MultiplicativeRule

    rule = MultiplicativeRule(base=-1, overrides={p: 1})
    lo, hi = 1, 5000
    seg = rule.segment_values(lo, hi)
    for n in (p, 2 * p, 3 * p, p - 1, p + 1, 4 * p):
        assert int(seg[n - 1]) == rule.evaluate(n, spf), n


# moduli whose prime divisors (2, 3, 5) sit in the override pool below
MODULI = (3, 4, 5, 8, 12, 15, 24)
OVERRIDE_POOL = (2, 3, 5, 7, 11, 13, 101, 1009)


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(MODULI + (1, -1)),
    overrides=st.dictionaries(st.sampled_from(OVERRIDE_POOL), st.sampled_from((-1, 1))),
    k=st.sampled_from((None, 2, 3, 4)),
    lo=st.integers(1, 10**3) | st.integers(1, 10**9) | st.integers(2**32 - 64, 2**32 + 64),
    size=st.integers(1, 64),
)
def test_segment_values_match_brute_force(base, overrides, k, lo, size):
    if base not in (1, -1):
        base = build_real_character(base)
    rule = MultiplicativeRule(base=base, overrides=overrides, k_truncation=k)
    hi = lo + size - 1
    seg = rule.segment_values(lo, hi)
    assert seg.dtype == np.int8
    assert seg.tolist() == [rule_value_brute(rule, n) for n in range(lo, hi + 1)]


# plan rules: every p | q filled with a random sign, and flips at primes
# where the character is nonzero
PLAN_CHARS = {q: build_real_character(q) for q in (3, 4, 5, 8, 12, 15, 24, 40, 105)}
FLIP_POOL = (2, 3, 7, 11, 13, 101)


@st.composite
def plan_rules(draw):
    chi = PLAN_CHARS[draw(st.sampled_from(sorted(PLAN_CHARS)))]
    overrides = {p: draw(st.sampled_from((-1, 1))) for p in chi.q_divisor_primes()}
    for p in draw(st.lists(st.sampled_from(FLIP_POOL), max_size=3)):
        if chi.value(p):
            overrides[p] = -chi.value(p)
    return MultiplicativeRule(base=chi, overrides=overrides)


def draw_straddle(data, chi, bottom: int, top: int) -> int:
    """A multiple of p^j in [bottom, top] for p | q and p^j <= 2p * 2^16:
    of p^(K_p) and of p^(K_p + 1), for every K_p the block can take."""
    p = data.draw(st.sampled_from(chi.q_divisor_primes()))
    pj = p
    for _ in range(data.draw(st.integers(0, 20))):
        if pj * p <= 2 * p * COMPLETED_PERIOD_MAX:
            pj *= p
    return pj * data.draw(st.integers(-(-bottom // pj), top // pj))


def completed_value_at(rule, n: int) -> int:
    """An untruncated character rule at n: rule_value_brute on the part of
    n made of the override primes and the primes of q, times the Kronecker
    symbol, periodic mod q = |d|, at the rest reduced mod q."""
    chi, s, m = rule.base, 1, n
    for p in set(rule.overrides) | set(chi.q_divisor_primes()):
        while m % p == 0:
            m, s = m // p, s * p
    return rule_value_brute(rule, s) * kronecker_brute(chi.discriminant, m % chi.modulus)


@settings(max_examples=60, deadline=None)
@given(rule=plan_rules(), k=st.sampled_from((None, 2, 3)), long=st.booleans(), data=st.data())
def test_plan_rule_windows_match_brute_force(rule, k, long, data):
    # short windows are checked whole; windows longer than any block
    # period at their ends, next to every power of the primes of q, and at
    # random points
    if k is not None:
        rule = rule.truncated(k)
    mid = draw_straddle(data, rule.base, 1, 10**7)
    size = data.draw(st.integers(COMPLETED_PERIOD_MAX, COMPLETED_PERIOD_MAX + 2**10) if long
                     else st.integers(1, 80))
    lo = max(1, mid - data.draw(st.integers(0, size)))
    seg = rule.segment_values(lo, lo + size - 1)
    if long:
        powers = [p**e for p in rule.base.q_divisor_primes() for e in range(1, 18)]
        at = {-lo % m + d for m in powers for d in (-1, 0, 1)} | set(range(20))
        at |= set(range(size - 20, size)) | set(data.draw(st.lists(st.integers(0, size - 1), max_size=40)))
        at = sorted(i for i in at if 0 <= i < size)
    else:
        at = range(size)
    assert [int(seg[i]) for i in at] == [rule_value_brute(rule, lo + i) for i in at]


@settings(max_examples=30, deadline=None)
@given(rule=plan_rules(), size=st.integers(1, 64), data=st.data())
def test_plan_rule_windows_near_the_int64_top(rule, size, data):
    mid = draw_straddle(data, rule.base, MAX_LIMIT - 2**40, MAX_LIMIT)
    hi = data.draw(st.sampled_from((MAX_LIMIT, min(MAX_LIMIT, mid + size // 2))))
    lo = hi - size + 1
    seg = rule.segment_values(lo, hi)
    assert seg.tolist() == [completed_value_at(rule, n) for n in range(lo, hi + 1)]


def test_moduli_past_the_block_bound_keep_the_period_of_chi():
    # 65537 > COMPLETED_PERIOD_MAX, so K_p = 1 and the block is chi's period
    chi = build_real_character(65537)
    rule = MultiplicativeRule(base=chi, overrides={65537: -1, 3: -chi.value(3)})
    block, period, steps = rules._completed_block(chi.period_values.tobytes(), ((65537, -1),))
    assert period == 65537 and steps == ((65537, -1),) and not block.flags.writeable
    for mid in (65537, 65537 * 3**9, 65537**2, 5 * 65537**3, MAX_LIMIT // 65537**2 * 65537**2):
        lo, hi = mid - 30, mid + 30
        assert rule.segment_values(lo, hi).tolist() == [completed_value_at(rule, n)
                                                        for n in range(lo, hi + 1)]


def test_completed_streams_agree_across_segments_and_threads():
    g = modified_character(ModificationPlan(character=PLAN_CHARS[15], flipped_primes=(7, 11)))
    f, x = g.truncated(3), 3 * 10**5
    runs = [direct_summatory(f, x, segment_size=size, threads=threads)
            for size in (2**10, 2**20) for threads in (1, 2)]
    assert all(r.checkpoints == runs[0].checkpoints and r.running_abs_max == runs[0].running_abs_max
               for r in runs)
    assert runs[0].final == (x, kfree_sum_sublinear(f, 3, x))


def test_rules_differing_in_flips_or_truncation_share_one_block():
    chi = PLAN_CHARS[40]
    g = modified_character(ModificationPlan(character=chi, flipped_primes=(3, 7)))
    g.segment_values(1, 100)
    before = rules._completed_block.cache_info()
    others = (g.truncated(2), g.truncated(3).without_truncation(),
              modified_character(ModificationPlan(character=chi, flipped_primes=(11,))))
    for rule in others:
        rule.segment_values(10**6, 10**6 + 100)
    after = rules._completed_block.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(others), 0)


CHI3 = build_real_character(3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: MultiplicativeRule(base=-1, k_truncation=2.5), PlanError,
     "truncation order k 2.5 is not an integer"),
    (lambda: MultiplicativeRule(base=CHI3, k_truncation=1), PlanError,
     "truncation order k must be >= 2, got 1"),
    (lambda: character_rule(CHI3).truncated("3"), PlanError, "truncation order k '3' is not"),
    (lambda: liouville_kfree_segment(1, 10, 2.5), RangeError, "truncation order k 2.5 is not"),
    (lambda: liouville_kfree_segment(1, 10, 0), RangeError, "truncation order k must be >= 2, got 0"),
    (lambda: sieve_kfree_segment(1, 10, -3), RangeError, "k-free order k must be >= 2, got -3"),
    (lambda: optimal_split(100, 1), RangeError, "split order k must be >= 2, got 1"),
    (lambda: DeviationBudget(k=2.5), RangeError, "budget exponent k 2.5 is not an integer"),
    (lambda: DeviationBudget(k=1), RangeError, "budget exponent k must be >= 2, got 1"),
    (lambda: kfree_hyperbola_sum(character_rule(CHI3), 1, sqrt_split(10**6)), RangeError,
     "k-free order k must be >= 2, got 1"),
    (lambda: kfree_hyperbola_sum(character_rule(CHI3), 2.0, sqrt_split(100)), RangeError,
     "k-free order k 2.0 is not an integer"),
    (lambda: kfree_factor(1, character_rule(CHI3), 20), RangeError,
     "k-free order k must be >= 2, got 1"),
    (lambda: kfree_factor(2.5, character_rule(CHI3), 20), RangeError,
     "k-free order k 2.5 is not an integer"),
    (lambda: kfree_factor_at_powers(0, character_rule(CHI3), 20), RangeError,
     "k-free order k must be >= 2, got 0"),
    (lambda: EnvelopeSpec(kind="theorem1", k=2.5, lam=1.0), ConfigError,
     "envelope k 2.5 is not an integer"),
    (lambda: EnvelopeSpec(kind="theorem1", k="2", lam=1.0), ConfigError,
     "envelope k '2' is not an integer"),
    (lambda: EnvelopeSpec(kind="theorem1", k=2, lam="1"), ConfigError,
     "envelope lam '1' is not a finite real"),
    (lambda: EnvelopeSpec(kind="power", alpha=0.25, scale=float("nan")), ConfigError,
     "envelope scale nan is not a finite real"),
    (lambda: build_real_character("x"), CharacterConstructionError, "modulus 'x' is not an integer"),
    (lambda: build_real_character(3.0), CharacterConstructionError, "modulus 3.0 is not an integer"),
    (lambda: build_real_character(5, discriminant=5.0), CharacterConstructionError,
     "discriminant 5.0 is not an integer"),
])
def test_bad_orders_raise_typed_errors_naming_them(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_any_order_truncates(chi3):
    # p^61 > 4096 for every prime, so the truncation at 61 changes nothing
    for base in (chi3, -1):
        rule = MultiplicativeRule(base=base, k_truncation=np.int64(61))
        assert type(rule.k_truncation) is int
        assert np.array_equal(rule.segment_values(1, 4096),
                              MultiplicativeRule(base=base).segment_values(1, 4096))


@pytest.mark.parametrize("rule", [
    character_rule(CHI3), character_rule(CHI3, k=2), one_rule(), mobius_rule(),
    modified_character(ModificationPlan(character=CHI3, flipped_primes=(7,))),
], ids=lambda rule: rule.label)
@pytest.mark.parametrize("lo, hi, message", [
    (5, 3, "hi must be >= 5, got 3"),
    (2**63, 2**63 + 2, f"upper bound {2**63 + 2} exceeds the 2^63-1 exact-arithmetic cap"),
])
def test_rule_windows_read_their_bounds_as_the_sieve_tables_do(rule, lo, hi, message):
    for call in (rule.segment_values, rule.values, sieve_mobius_segment):
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            call(lo, hi)
