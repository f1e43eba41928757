import math

import numpy as np
import pytest

from kfreesums import (
    DeviationBudget,
    ModificationPlan,
    PlanError,
    build_real_character,
    build_spf,
    character_rule,
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

from oracles import distance_squared_loop, primes_trial


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
    for x in (10, 100, 10**4):
        d = pretentious_distance(g, ref, x)
        assert d * d == pytest.approx(distance_squared_loop(g, ref, x), rel=1e-12)


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
