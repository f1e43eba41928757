"""End-to-end acceptance checks, one per contract criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with the measured values; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from kfreesums import (
    DenseValueTable,
    DeviationBudget,
    ModificationPlan,
    build_real_character,
    character_rule,
    character_table,
    checkpoint_schedule,
    completed_character,
    compare_methods,
    deviation_factor,
    dirichlet_convolve,
    dirichlet_inverse,
    direct_summatory,
    envelope_ratio,
    explicit_split,
    fit_exponent,
    kfree_factor,
    mertens,
    mertens_recursive,
    modified_character,
    optimal_split,
    pointwise_product,
    power_envelope,
    pretentious_distance,
    sieve_mobius_segment,
    sieve_primes,
    sqrt_split,
    synthetic_power_series,
    verify_deviation_budget,
)

from oracles import mobius_brute


@pytest.fixture(scope="module")
def chi3():
    return build_real_character(3)


@pytest.fixture(scope="module")
def figure_series(chi3):
    return direct_summatory(character_rule(chi3, k=2), 10**7)


def report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_01_mobius_unit_identity():
    limit = 10**5
    t0 = time.perf_counter()
    mu = sieve_mobius_segment(1, limit)
    ones = DenseValueTable(1, limit, np.ones(limit, dtype=np.int8), label="one")
    conv = dirichlet_convolve(mu, ones)
    elapsed = time.perf_counter() - t0
    expect = np.zeros(limit + 1, dtype=np.int64)
    expect[1] = 1
    assert np.array_equal(conv.values, expect)
    assert elapsed < 5.0
    report(f"PASS 01 mobius-unit identity on [1,1e5], exact ({elapsed:.2f} s)")


def test_criterion_02_character_inverse_identity():
    limit = 10**4
    for q in (3, 4, 5):
        chi = build_real_character(q)
        chi_t = character_table(chi, 1, limit)
        mu_chi = pointwise_product(sieve_mobius_segment(1, limit), chi_t)
        inv = dirichlet_inverse(chi_t)
        assert np.array_equal(inv.values[1:], mu_chi.values.astype(np.int64)), q
    report("PASS 02 character inverse equals mu*chi on [1,1e4] for q in {3,4,5}, exact")


def test_criterion_03_kfree_restriction_factorization(chi3):
    limit = 10**4
    gs = [
        completed_character(chi3),
        modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 11))),
    ]
    for k in (2, 3, 4, 5):
        for g in gs:
            conv = dirichlet_convolve(g.values(1, limit), kfree_factor(k, g, limit))
            target = g.truncated(k).values(1, limit).values.astype(np.int64)
            assert np.array_equal(conv.values[1:], target), (k, g.label)
    report("PASS 03 g * kfree-factor equals k-free restriction on [1,1e4], k in {2..5}, exact")


def test_criterion_04_deviation_factor_law(chi3):
    limit = 10**4
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5, 11)))
    mu_g = pointwise_product(sieve_mobius_segment(1, limit), g.values(1, limit))
    oracle = dirichlet_convolve(mu_g, character_table(chi3, 1, limit))
    dev = deviation_factor(g, chi3, limit)
    assert np.array_equal(dev.values.astype(np.int64), oracle.values[1:])

    # prime-power magnitudes: chi(p)^(r-1)(chi(p)-g(p)) forces the identity
    # |h(p^r)| = |1 - g(p) chi(p)| at every power when chi(p) != 0, and at
    # r = 1 on the modulus primes (higher ramified powers vanish exactly).
    for p in (int(x) for x in sieve_primes(100)):
        target = abs(1 - g.prime_value(p) * chi3.value(p))
        pr, r = p, 1
        while pr <= limit:
            if chi3.value(p) != 0 or r == 1:
                assert abs(dev.value_at(pr)) == target, (p, r)
            else:
                assert dev.value_at(pr) == 0, (p, r)
            pr *= p
            r += 1

    # the companion factor g * (mu chi) carries the identity at all powers
    mu_chi = pointwise_product(sieve_mobius_segment(1, limit), character_table(chi3, 1, limit))
    h2 = dirichlet_convolve(g.values(1, limit), mu_chi)
    for p in (int(x) for x in sieve_primes(100)):
        target = abs(1 - g.prime_value(p) * chi3.value(p))
        pr = p
        while pr <= limit:
            assert abs(h2.value_at(pr)) == target, (p, pr)
            pr *= p
    report("PASS 04 deviation factor equals (mu g) conv chi on [1,1e4]; magnitude law exact")


def test_criterion_05_hyperbola_equals_direct(chi3):
    x = 10**5
    f = character_rule(chi3, k=2)
    t0 = time.perf_counter()
    splits = [optimal_split(x, 2), sqrt_split(x), explicit_split(x, float(x), 1.0)]
    values = []
    for split in splits:
        rep = compare_methods(f, 2, x, split)
        values.append(rep.hyperbola_value)
        assert rep.direct_value == rep.hyperbola_value
    elapsed = time.perf_counter() - t0
    assert len(set(values)) == 1
    assert elapsed < 10.0
    report(f"PASS 05 hyperbola == direct at x=1e5 on 3 splits, exact (M={values[0]}, {elapsed:.2f} s)")


def test_criterion_06_mertens_dual_path():
    assert sum(mobius_brute(n) for n in range(1, 11)) == -1
    assert mertens(10) == -1
    for x in (10**3, 10**4, 10**5, 10**6):
        assert mertens(x) == mertens_recursive(x), x
    report("PASS 06 mertens streaming == recursive for X in {1e3..1e6}; M(10) = -1 by enumeration")


def test_criterion_07_figure_envelope(chi3):
    t0 = time.perf_counter()
    series = direct_summatory(character_rule(chi3, k=2), 10**7)
    single = time.perf_counter() - t0
    assert single < 120.0

    t0 = time.perf_counter()
    threaded = direct_summatory(character_rule(chi3, k=2), 10**7, threads=8)
    eight = time.perf_counter() - t0
    assert eight < 30.0
    assert threaded.checkpoints == series.checkpoints

    ratio, at = envelope_ratio(series, power_envelope(0.25), x_min=10**3)
    assert ratio < 1.0
    report(
        f"PASS 07 partial sums to 1e7 inside +-x^(1/4): max ratio {ratio:.4f} at x={at} "
        f"({single:.2f} s at threads=1, {eight:.2f} s and the same series at threads=8)"
    )


def test_criterion_08_conjectured_exponent_probe(figure_series):
    fit = fit_exponent(figure_series, x_min=10**4)
    assert fit.slope <= 0.30
    report(f"PASS 08 fitted growth exponent {fit.slope:.4f} <= 0.30 (x_min=1e4)")


def test_criterion_09_deviation_budget(chi3):
    budget = DeviationBudget(big_c=2.0, small_c=1.0, k=2, x0=10)
    g = completed_character(chi3)
    rep = verify_deviation_budget(g, chi3, budget, 10**6)
    assert rep.passed

    flips = tuple(int(p) for p in sieve_primes(10**3) if p != 3)
    g_all = modified_character(ModificationPlan(character=chi3, flipped_primes=flips))
    rep2 = verify_deviation_budget(g_all, chi3, budget, 10**3)
    assert not rep2.passed
    assert rep2.first_violation[0] < 10**3
    report(
        "PASS 09 budget verifier: completion passes to 1e6 "
        f"(S=1 vs budget(10)={budget.value(10):.3f}); all-primes-flipped fails at "
        f"x={rep2.first_violation[0]}"
    )


def test_criterion_10_pretentious_distance(chi3):
    g = completed_character(chi3)
    chi_rule = character_rule(chi3)
    for x in [3, 10, 100] + checkpoint_schedule(10**5):
        if x >= 3:
            d = pretentious_distance(g, chi_rule, x)
            assert abs(d * d - 1 / 3) <= 1e-12, x
    for f in (g, modified_character(ModificationPlan(character=chi3, flipped_primes=(7,)))):
        assert pretentious_distance(f, f, 10**4) == 0.0
    report("PASS 10 distance^2 of completion from chi_3 = 1/3 +- 1e-12; self-distance exactly 0")


def test_criterion_11_property_suites(chi3):
    f = character_rule(chi3, k=2)
    a = direct_summatory(f, 10**6, segment_size=2**16)
    b = direct_summatory(f, 10**6, segment_size=2**20)
    assert a.checkpoints == b.checkpoints and a.running_abs_max == b.running_abs_max

    c = direct_summatory(f, 10**6, segment_size=2**16, threads=4)
    assert c.checkpoints == b.checkpoints and c.running_abs_max == b.running_abs_max

    for beta in (0.2, 0.25, 0.5):
        series = synthetic_power_series(beta, 10**6, checkpoint_schedule(10**6))
        fit = fit_exponent(series, x_min=10**3)
        assert abs(fit.slope - beta) <= 0.02, beta
    report("PASS 11 property suites: segmentation, thread determinism, synthetic exponents +-0.02")
