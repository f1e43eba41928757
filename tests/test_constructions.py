import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kfreesums import (
    CapacityError,
    DeviationBudget,
    EnvelopeSpec,
    MultiplicativeRule,
    ModificationPlan,
    PlanError,
    RangeError,
    build_real_character,
    build_spf,
    character_rule,
    checkpoint_schedule,
    completed_character,
    deviation_sum,
    greedy_plan,
    growth_report,
    modified_character,
    pretentious_distance,
    sieve_primes,
    verify_deviation_budget,
)
from kfreesums.experiment import read_json, read_plan

from oracles import distance_fsum_loop, greedy_plan_loop, primes_trial


@pytest.fixture(scope="module")
def chi3():
    return build_real_character(3)


def test_completed_character_values(chi3):
    g = completed_character(chi3)
    spf = build_spf(100)
    assert g.prime_value(3) == 1
    assert g.prime_value(2) == -1
    assert g.evaluate(9, spf) == 1
    assert g.evaluate(6, spf) == -1  # complete multiplicativity
    for n in range(1, 100):
        if n % 3 != 0:
            assert g.evaluate(n, spf) == chi3.value(n)


def test_modified_character_flips(chi3):
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5,)))
    assert g.prime_value(5) == 1            # chi3(5) = -1 flipped
    spf = build_spf(30)
    assert g.evaluate(25, spf) == 1          # g(5)^2


def test_empty_plan_equals_completion(chi3):
    a = modified_character(ModificationPlan(character=chi3))
    b = completed_character(chi3)
    assert np.array_equal(a.segment_values(1, 10**4), b.segment_values(1, 10**4))


def test_plan_validation(chi3):
    with pytest.raises(PlanError):
        ModificationPlan(character=chi3, flipped_primes=(3,))   # divides q
    with pytest.raises(PlanError):
        ModificationPlan(character=chi3, flipped_primes=(6,))   # not prime


@pytest.mark.parametrize("flip, shown", [
    (5.5, "5.5"), (5.0, "5.0"), ("5", "'5'"), (np.float64(11.5), "11.5"),
])
def test_plan_rejects_non_integral_flips(chi3, flip, shown):
    # int(5.5) would silently flip 5
    with pytest.raises(PlanError, match=f"flipped prime .*{shown}.* is not an integer"):
        ModificationPlan(character=chi3, flipped_primes=(5, flip))


def test_plan_accepts_numpy_integer_flips(chi3):
    plan = ModificationPlan(character=chi3, flipped_primes=(np.int64(11), np.int32(5), 7))
    assert plan.flipped_primes == (5, 7, 11)
    assert all(type(p) is int for p in plan.flipped_primes)


def test_plan_negative_unit_variant(chi3):
    g = modified_character(ModificationPlan(character=chi3, unit_on_q_divisors=False))
    assert g.prime_value(3) == -1
    assert g.is_unit_valued()
    # the deviation sum is blind to the sign choice at p | q
    gp = completed_character(chi3)
    for x in (2, 3, 10, 100):
        assert deviation_sum(g, chi3, x) == deviation_sum(gp, chi3, x)


def test_plan_json_round_trip(chi3):
    plan = ModificationPlan(character=chi3, flipped_primes=(5, 11))
    back = read_plan(read_json(plan.to_json()), 3)
    assert back.flipped_primes == (5, 11)
    assert back.character.modulus == 3
    assert back.unit_on_q_divisors is True


def test_deviation_sum_forced_values(chi3):
    g = completed_character(chi3)
    for x in (3, 10, 100, 10**6):
        assert deviation_sum(g, chi3, x) == 1
    assert deviation_sum(g, chi3, 2) == 0
    g57 = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 7)))
    assert deviation_sum(g57, chi3, 10) == 5  # 1 + 2*2


def test_deviation_sum_against_prime_loop(chi3):
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 7, 31)))
    x = 200
    brute = sum(abs(1 - g.prime_value(p) * chi3.value(p)) for p in primes_trial(x))
    assert deviation_sum(g, chi3, x) == brute


def test_deviation_sum_monotone_steps_at_primes(chi3):
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 7)))
    prev = 0
    prime_set = set(primes_trial(60))
    for x in range(2, 61):
        s = deviation_sum(g, chi3, x)
        assert s >= prev
        if s != prev:
            assert x in prime_set
        prev = s


def test_budget_verifier_acceptance_cases(chi3):
    g = completed_character(chi3)
    budget = DeviationBudget(big_c=2.0, small_c=1.0, k=2, x0=10)
    assert budget.value(10) == pytest.approx(1.3868, abs=1e-3)
    report = verify_deviation_budget(g, chi3, budget, 10**6)
    assert report.passed and report.first_violation is None
    assert all(r.passed for r in report.rows)

    flips = tuple(int(p) for p in sieve_primes(1000) if p != 3)
    g_all = modified_character(ModificationPlan(character=chi3, flipped_primes=flips))
    report2 = verify_deviation_budget(g_all, chi3, budget, 10**3)
    assert not report2.passed
    assert report2.first_violation[0] < 10**3

    tight = DeviationBudget(big_c=1.0, small_c=1.0, k=2, x0=3)
    report3 = verify_deviation_budget(g, chi3, tight, 10**3)
    assert not report3.passed
    x, s, b = report3.first_violation
    assert x == 3 and s == 1
    assert b == pytest.approx(0.6072, abs=1e-3)


def test_budget_report_csv(tmp_path, chi3):
    g = completed_character(chi3)
    report = verify_deviation_budget(
        g, chi3, DeviationBudget(), 10**4, schedule=[10, 100, 1000, 10**4]
    )
    path = tmp_path / "budget.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,S,budget,pass"
    assert len(lines) == 1 + len(report.rows)
    assert lines[1].endswith(",true")


@pytest.mark.parametrize("call, message", [
    (lambda: DeviationBudget(big_c=math.nan), "budget C nan is not a finite real"),
    (lambda: DeviationBudget(big_c=math.inf), "budget C inf is not a finite real"),
    (lambda: DeviationBudget(small_c=-math.inf), "budget c -inf is not a finite real"),
    (lambda: DeviationBudget(small_c="1"), "budget c '1' is not a finite real"),
    (lambda: DeviationBudget(big_c=True), "budget C True is not a finite real"),
    (lambda: DeviationBudget(big_c=10**400), f"budget C {10**400} is not a finite real"),
    (lambda: DeviationBudget(small_c=0.0), "budget constants must be positive: C=2.0, c=0.0"),
    (lambda: DeviationBudget(x0=2.5), "budget start x0 2.5 is not an integer"),
    (lambda: checkpoint_schedule(100, math.nan), "schedule ratio nan is not a finite real"),
    (lambda: checkpoint_schedule(100, math.inf), "schedule ratio inf is not a finite real"),
    (lambda: checkpoint_schedule(100, "1.1"), "schedule ratio '1.1' is not a finite real"),
    (lambda: checkpoint_schedule(100, 1.0), "schedule ratio must exceed 1, got 1.0"),
])
def test_budgets_and_ratios_must_be_finite_reals(call, message):
    with pytest.raises(RangeError, match=re.escape(message)):
        call()


def test_nan_budget_gives_no_verdict(chi3):
    # the plan fails the default budget; under C = NaN every comparison
    # S(x) > budget(x) is False, so that budget would pass it
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 7, 11, 13, 17, 19, 23)))
    assert not verify_deviation_budget(g, chi3, DeviationBudget(), 1000).passed
    with pytest.raises(RangeError, match="budget C nan"):
        verify_deviation_budget(g, chi3, DeviationBudget(big_c=math.nan), 1000)


def test_budget_fields_and_ratio_are_read_as_python_numbers():
    budget = DeviationBudget(big_c=np.float32(2), small_c=1, k=np.int64(2), x0=np.int8(10))
    assert budget == DeviationBudget() and [type(getattr(budget, f)) for f in
                                            ("big_c", "small_c", "k", "x0")] == [float, float, int, int]
    # a finite ratio whose product passes the float range ends the schedule
    assert checkpoint_schedule(100, 1e308) == [10, 100]


def test_budget_param_validation():
    with pytest.raises(Exception):
        DeviationBudget(big_c=-1.0)
    with pytest.raises(Exception):
        DeviationBudget(k=1)
    with pytest.raises(Exception):
        DeviationBudget(x0=1)


def test_greedy_plan_soundness(chi3):
    budget = DeviationBudget(big_c=10.0, small_c=0.5, k=2, x0=10)
    plan = greedy_plan(chi3, budget, 10**6)
    assert plan.flipped_primes  # nontrivial at this generosity
    g = modified_character(plan)
    assert verify_deviation_budget(g, chi3, budget, 10**6).passed


def test_greedy_plan_tiny_budget_is_empty(chi3):
    plan = greedy_plan(chi3, DeviationBudget(big_c=0.01, small_c=1.0, k=2, x0=10), 10**4)
    assert plan.flipped_primes == ()


def test_greedy_flip_counts_respect_budget(chi3):
    budget = DeviationBudget(big_c=10.0, small_c=0.5, k=2, x0=10)
    limit = 10**5
    plan = greedy_plan(chi3, budget, limit)
    flips = plan.flipped_primes
    import bisect

    for x in (10, 100, 1000, 10**4, limit):
        n_flips = bisect.bisect_right(flips, x)
        forced = 1 if x >= 3 else 0
        assert n_flips <= (budget.value(x) - forced) / 2


def test_pretentious_distance_forced_values(chi3):
    g = completed_character(chi3)
    chi_rule = character_rule(chi3)
    for x in (3, 10, 10**3, 10**5):
        d = pretentious_distance(g, chi_rule, x)
        assert d * d == pytest.approx(1 / 3, abs=1e-12)
    g5 = modified_character(ModificationPlan(character=chi3, flipped_primes=(5,)))
    d5 = pretentious_distance(g5, chi_rule, 10)
    assert d5 * d5 == pytest.approx(1 / 3 + 2 / 5, abs=1e-12)


def test_distance_self_is_exact_zero(chi3):
    g = completed_character(chi3)
    assert pretentious_distance(g, g, 10**5) == 0.0
    g2 = modified_character(ModificationPlan(character=chi3, flipped_primes=(7, 11)))
    assert pretentious_distance(g2, g2, 10**4) == 0.0


def test_distance_matches_independent_loop(chi3):
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 13)))
    ref = character_rule(chi3)
    assert pretentious_distance(g, ref, 2) == 0.0
    for x in (3, 4, 5, 10, 12, 13, 100, 10**4):  # 3, 5, 13 are the primes of T
        assert pretentious_distance(g, ref, x) == distance_fsum_loop(g, ref, x)


def test_modified_agrees_with_chi_off_exceptional_set(chi3):
    plan = ModificationPlan(character=chi3, flipped_primes=(5, 13, 9973))
    g = modified_character(plan)
    exceptional = set(plan.flipped_primes) | {3}
    for p in sieve_primes(10**5):
        p = int(p)
        if p not in exceptional:
            assert g.prime_value(p) == chi3.value(p)


def test_growth_report(chi3):
    g = completed_character(chi3)
    rep = growth_report(g, chi3, 10**6)
    assert rep.omega_q == 1
    assert rep.limit_bound == pytest.approx(1 / math.log(3), rel=1e-12)
    assert 0 < rep.max_ratio < float("inf")
    # ratio at a checkpoint is recomputable by enumeration
    x0, m0 = rep.series.checkpoints[0]
    vals = g.segment_values(1, x0).astype(np.int64)
    assert m0 == int(vals.sum())
    assert rep.ratios[0][1] == pytest.approx(abs(m0) / math.log(x0) ** 1)


def test_growth_report_csv(tmp_path, chi3):
    g = completed_character(chi3)
    rep = growth_report(g, chi3, 10**4, schedule=[10, 100, 1000, 10**4])
    path = tmp_path / "growth.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,M,ratio"
    assert len(lines) == 5


# -- the prime-array report layer, against per-prime reference loops --


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([3, 4, 5, 8, 15, 24]),
       big_c=st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
       small_c=st.floats(0.1, 3.0),
       k=st.sampled_from([2, 3, 4]),
       x0=st.integers(2, 200),
       limit=st.integers(1, 10**5))
@example(q=3, big_c=5000.0, small_c=3.0, k=3, x0=10, limit=10**5)  # valley past the limit
@example(q=5, big_c=10.0, small_c=0.5, k=2, x0=150, limit=100)      # limit below x0
@example(q=3, big_c=2.0, small_c=30.0, k=2, x0=10, limit=1000)      # exp((c k / 2)^2) overflows
def test_greedy_plan_equals_reference_loop(q, big_c, small_c, k, x0, limit):
    chi = build_real_character(q)
    budget = DeviationBudget(big_c=big_c, small_c=small_c, k=k, x0=x0)
    assert greedy_plan(chi, budget, limit).flipped_primes == greedy_plan_loop(chi, budget, limit)


def test_budget_verifier_with_a_valley_past_the_float_range(chi3):
    # exp((c k / 2)^2) = exp(900) overflows a float; the valley lies past
    # every limit, so the verifier does not need it (greedy_plan's case is
    # an example of test_greedy_plan_equals_reference_loop)
    budget = DeviationBudget(big_c=2.0, small_c=30.0, k=2)
    report = verify_deviation_budget(completed_character(chi3), chi3, budget, 1000)
    assert report.first_violation[:2] == (10, 1) and not report.passed


@pytest.mark.parametrize("small_c, k", [(30.0, 2), (1e200, 2), (18.0, 3)])
def test_budget_valley_past_the_float_range_is_infinite(small_c, k):
    # (c k / 2)^2 > 709 leaves exp's float range; the valley is then inf
    assert DeviationBudget(big_c=2.0, small_c=small_c, k=k).valley() == math.inf
    assert DeviationBudget(big_c=2.0, small_c=1.0, k=2).valley() == math.e


@pytest.mark.parametrize("site", [
    lambda k, chi: DeviationBudget(k=k).value(10),
    lambda k, chi: greedy_plan(chi, DeviationBudget(big_c=100.0, k=k), 1000).flipped_primes,
    lambda k, chi: EnvelopeSpec(kind="theorem1", k=k, lam=0.5).value([10, 10**6]).tolist(),
], ids=["budget", "greedy", "envelope"])
def test_orders_past_the_float_range_act_as_huge_float_orders(site, chi3):
    # x^(1/k) is 1.0 at k = 10^300 already; k = 10^400 leaves the float
    # range, and 1 / k must then give 0.0, not an OverflowError
    assert site(10**400, chi3) == site(10**300, chi3)


def _budget_meeting(target: int, x: int, small_c: float, k: int) -> DeviationBudget:
    """A budget starting at x whose scalar value at x is exactly `target`."""
    big_c = target / (x ** (1.0 / k) * math.exp(-small_c * math.sqrt(math.log(x))))
    for _ in range(8):
        budget = DeviationBudget(big_c=big_c, small_c=small_c, k=k, x0=x)
        if budget.value(x) == target:
            return budget
        big_c = math.nextafter(big_c, 0.0 if budget.value(x) > target else math.inf)
    raise AssertionError(f"no budget meets {target} at {x}")


@pytest.mark.parametrize("q, x, small_c, k", [(3, 101, 0.5, 2), (3, 1009, 0.5, 2), (5, 211, 0.2, 4)])
def test_greedy_plan_flips_where_the_budget_is_met_exactly(q, x, small_c, k):
    # x0 = x lies past the valley and every modulus prime, so the first
    # candidate's window binds at x alone, where S would be 2 + 1: it is
    # flipped at a budget of exactly 3.0 and not just below it
    chi = build_real_character(q)
    first = next(int(p) for p in sieve_primes(x) if q % p)
    at = _budget_meeting(3, x, small_c, k)
    below = at
    while below.value(x) == 3.0:
        below = DeviationBudget(big_c=math.nextafter(below.big_c, 0.0), small_c=small_c, k=k, x0=x)
    for budget, flipped in ((at, True), (below, False)):
        plan = greedy_plan(chi, budget, 10 * x).flipped_primes
        assert plan == greedy_plan_loop(chi, budget, 10 * x)
        assert (first in plan) is flipped


_BASES = [3, 4, 5, 8, 15, 24, 1, -1]  # character moduli, then the constant bases


@st.composite
def prime_rules(draw, base=None):
    """A rule on a character or constant base with up to 4 overrides
    below 60, some at primes dividing the modulus, possibly truncated."""
    if base is None:
        b = draw(st.sampled_from(_BASES), label="base")
        base = b if b in (1, -1) else build_real_character(b)
    overrides = draw(st.dictionaries(st.sampled_from(primes_trial(60)), st.sampled_from([-1, 1]),
                                     max_size=4), label="overrides")
    k = draw(st.sampled_from([None, 2, 3]), label="truncation")
    return MultiplicativeRule(base=base, overrides=overrides, k_truncation=k)


def _special_primes(*rules) -> list[int]:
    out = set()
    for r in rules:
        out |= set(r.overrides)
        if not isinstance(r.base, int):
            out |= set(r.base.q_divisor_primes())
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_distance_equals_fsum_loop(data):
    f = data.draw(prime_rules(), label="f")
    same = data.draw(st.booleans(), label="same base")
    g = data.draw(prime_rules(f.base if same else None), label="g")
    x = data.draw(st.one_of(st.integers(-3, 3000), st.sampled_from(_special_primes(f, g) or [2])),
                  label="x")
    assert pretentious_distance(f, g, x) == distance_fsum_loop(f, g, x)


@pytest.mark.parametrize("f_base, g_base", [(3, 4), (-1, 3), (1, -1), (15, 8)])
def test_distance_with_different_bases_equals_fsum_loop(f_base, g_base):
    def rule(b):
        return MultiplicativeRule(base=b if b in (1, -1) else build_real_character(b),
                                  overrides={7: 1, 2: -1})
    f, g = rule(f_base), rule(g_base)
    for x in (2, 7, 10**4 + 7):
        assert pretentious_distance(f, g, x) == distance_fsum_loop(f, g, x)


def test_distance_of_one_character_answers_at_any_int64_x(chi3):
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 13)))
    ref = character_rule(chi3)
    d = pretentious_distance(g, ref, 13)
    for x in (10**12, 2**63 - 1, np.int64(2**62)):
        assert pretentious_distance(g, ref, x) == d


def test_sieving_past_the_byte_budget_raises_capacity_error(chi3):
    chi4 = character_rule(build_real_character(4))
    with pytest.raises(CapacityError, match=f"prime sieve to {10**12} needs"):
        pretentious_distance(character_rule(chi3), chi4, 10**12)
    with pytest.raises(CapacityError, match=f"prime sieve to {10**12} needs"):
        greedy_plan(chi3, DeviationBudget(), 10**12)


@pytest.mark.parametrize("x", [2.5, 10.0, "100", None])
def test_non_integer_bounds_raise_range_error(chi3, x):
    g = completed_character(chi3)
    with pytest.raises(RangeError, match=f"x {re.escape(repr(x))} is not an integer"):
        pretentious_distance(g, g, x)
    with pytest.raises(RangeError, match=f"limit {re.escape(repr(x))} is not an integer"):
        greedy_plan(chi3, DeviationBudget(), x)
