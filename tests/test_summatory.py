import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kfreesums import summatory
from kfreesums import (
    DenseValueTable,
    OracleDomainError,
    PrefixSummatory,
    RangeError,
    ShapeError,
    build_real_character,
    character_rule,
    checkpoint_schedule,
    direct_summatory,
    explicit_split,
    hyperbola_sum,
    kfree_factor,
    kfree_hyperbola_sum,
    mertens,
    mertens_recursive,
    mobius_rule,
    ModificationPlan,
    modified_character,
    one_rule,
    optimal_split,
    sieve_mobius_segment,
    sqrt_split,
    stream_summatory,
    streamed_summatory_map,
    summatory_mu_chi,
)

from oracles import mobius_brute, partial_sum_enumeration


@pytest.fixture(scope="module")
def chi3():
    return build_real_character(3)


def test_schedule_shape():
    sched = checkpoint_schedule(10**4)
    assert sched[0] == 10
    assert sched[-1] == 10**4
    assert 10**3 in sched and 100 in sched
    assert all(b > a for a, b in zip(sched, sched[1:]))
    with pytest.raises(RangeError):
        checkpoint_schedule(100, ratio=1.0)


def test_direct_summatory_examples(chi3):
    assert direct_summatory(character_rule(chi3, k=2), 10).final == (10, 1)
    assert direct_summatory(mobius_rule(), 10).final == (10, -1)
    assert direct_summatory(one_rule(), 10**6, schedule=[10**6]).final == (10**6, 10**6)


def test_direct_summatory_matches_enumeration(chi3):
    f = character_rule(chi3, k=2)
    series = direct_summatory(f, 200, schedule=list(range(1, 201)))
    spf_vals = [0] + [mobius_brute(n) ** 2 * chi3.value(n) for n in range(1, 201)]
    total = 0
    for x, m in series.checkpoints:
        total = sum(spf_vals[1 : x + 1])
        assert m == total


def test_running_abs_max_is_exact(chi3):
    f = character_rule(chi3, k=2)
    series = direct_summatory(f, 500, schedule=[100, 500])
    vals = f.segment_values(1, 500).astype(np.int64)
    prefix = np.cumsum(vals)
    assert series.running_abs_max[0][1] == int(np.max(np.abs(prefix[:100])))
    assert series.running_abs_max[1][1] == int(np.max(np.abs(prefix)))


def test_segmentation_independence(chi3):
    f = character_rule(chi3, k=2)
    a = direct_summatory(f, 10**6, segment_size=2**16)
    b = direct_summatory(f, 10**6, segment_size=2**20)
    assert a.checkpoints == b.checkpoints
    assert a.running_abs_max == b.running_abs_max


def test_schedule_independence(chi3):
    f = character_rule(chi3, k=2)
    shared = [10**3, 10**4, 10**5]
    a = direct_summatory(f, 10**5, schedule=shared)
    b = direct_summatory(f, 10**5, schedule=shared + [17, 4242, 99999])
    got = dict(b.checkpoints)
    for x, m in a.checkpoints:
        assert got[x] == m


def test_thread_determinism(chi3):
    f = character_rule(chi3, k=2)
    a = direct_summatory(f, 10**6, threads=1)
    b = direct_summatory(f, 10**6, threads=4)
    assert a.checkpoints == b.checkpoints
    assert a.running_abs_max == b.running_abs_max


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stream_matches_naive_prefix(data):
    # any values, schedule, window length and thread count: the interval
    # reduction equals a full cumsum and running max of |prefix|
    n = data.draw(st.integers(1, 3000))
    dtype = data.draw(st.sampled_from([np.int8, np.int64]))
    vals = data.draw(arrays(dtype, n, elements=st.integers(-1, 1)))
    schedule = data.draw(st.lists(st.integers(1, n), max_size=60))
    segment_size = data.draw(st.integers(1, 4096))
    threads = data.draw(st.sampled_from([1, 2]))
    series = stream_summatory(lambda lo, hi: vals[lo - 1 : hi], n, schedule=schedule,
                              segment_size=segment_size, threads=threads)
    prefix = np.cumsum(vals, dtype=np.int64)
    running = np.maximum.accumulate(np.abs(prefix))
    xs = sorted(set(schedule) | {n})
    assert series.checkpoints == [(x, int(prefix[x - 1])) for x in xs]
    assert series.running_abs_max == [(x, int(running[x - 1])) for x in xs]


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(chi3, threads):
    with pytest.raises(RangeError, match=f"got {threads}$"):
        direct_summatory(character_rule(chi3, k=2), 1000, threads=threads)


def test_threads_capped_at_usable_cpus(chi3, monkeypatch):
    pools = []

    class Recording(summatory.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(summatory, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(summatory, "ThreadPoolExecutor", Recording)
    f = character_rule(chi3, k=2)
    series = direct_summatory(f, 10**5, segment_size=2**12, threads=4)
    assert pools == [2]
    assert series == direct_summatory(f, 10**5, segment_size=2**12, threads=1)


def test_mertens_small_and_dual_path():
    assert mertens(1) == 1
    assert mertens(10) == -1
    assert mertens_recursive(2) == 0
    assert mertens_recursive(10) == -1
    for x in (10**3, 10**4, 10**5, 10**6):
        assert mertens(x) == mertens_recursive(x)


def test_mertens_known_values():
    # frozen from two independent computations (streaming and recursive)
    assert mertens(10**3) == 2
    assert mertens(10**4) == -23
    assert mertens(10**5) == -48
    assert mertens(10**6) == 212


def test_summatory_mu_chi(chi3):
    assert summatory_mu_chi(chi3, 3, schedule=[3]).final == (3, 2)
    assert summatory_mu_chi(chi3, 1, schedule=[1]).final == (1, 1)
    series = summatory_mu_chi(chi3, 10**6)
    assert abs(series.final[1]) < (10**6) ** 0.6
    expect = partial_sum_enumeration(lambda n: mobius_brute(n) * chi3.value(n), 50)
    assert summatory_mu_chi(chi3, 50, schedule=[50]).final[1] == expect


def test_optimal_split_exact_powers():
    s = optimal_split(2**5, 2)
    assert (s.u_floor, s.v_floor) == (16, 2)
    s = optimal_split(10**10, 2)
    assert (s.u_floor, s.v_floor) == (10**8, 10**2)
    s = optimal_split(128, 3)
    assert s.v_floor == 2 and s.u_floor == 64  # 128^(6/7) = 2^6


def test_split_validation():
    with pytest.raises(RangeError):
        explicit_split(100, 5.0, 4.0)  # (6)(5) = 30 <= 100: region uncovered
    with pytest.raises(RangeError):
        explicit_split(100, 60.0, 2.0)  # floor product 120 > x
    s = sqrt_split(10**5)
    assert s.u_floor == s.v_floor == 316


def test_hyperbola_identity_element(chi3):
    # h = unit: the sum reduces to M_g(x) for any split
    x = 10**4
    g = character_rule(chi3)
    g_vals = g.values(1, x)
    g_sum = PrefixSummatory(g.values(1, x).values)
    eps = np.zeros(x, dtype=np.int8)
    eps[0] = 1
    h_vals = DenseValueTable(1, x, eps, label="unit")
    h_sum = PrefixSummatory(eps)
    for split in (optimal_split(x, 2), sqrt_split(x), explicit_split(x, 20.0, 500.0)):
        assert hyperbola_sum(h_sum, g_sum, h_vals, g_vals, split) == g_sum(x)


def test_hyperbola_degenerate_v1(chi3):
    # V = 1 collapses to sum_n h(n) M_g(x/n)
    x = 10**4
    g = character_rule(chi3)
    h_t = kfree_factor(2, g, x)
    g_sum = PrefixSummatory(g.values(1, x).values)
    h_vals = h_t
    h_sum = PrefixSummatory(h_t.values)
    split = explicit_split(x, float(x), 1.0)
    expect = sum(
        h_t.value_at(n) * g_sum(x // n) for n in range(1, x + 1) if h_t.value_at(n)
    )
    assert hyperbola_sum(h_sum, g_sum, h_vals, g.values(1, 1),
                         split) == expect
    direct = direct_summatory(g.truncated(2), x, schedule=[x]).final[1]
    assert expect == direct


def test_hyperbola_equals_direct_for_figure_function(chi3):
    x = 10**5
    g = character_rule(chi3)
    f = g.truncated(2)
    direct = direct_summatory(f, x, schedule=[x]).final[1]
    h_t = kfree_factor(2, g, x)
    h_vals = h_t
    mu = sieve_mobius_segment(1, 316).values.astype(np.int64)
    gv = g.segment_values(1, 316).astype(np.int64)
    h_sum = PrefixSummatory(mu * np.abs(gv), k=2)
    g_vals = g.values(1, x)
    g_sum = chi3.partial_sum
    for split in (optimal_split(x, 2), sqrt_split(x), explicit_split(x, float(x), 1.0)):
        assert hyperbola_sum(h_sum, g_sum, h_vals, g_vals, split) == direct


def test_hyperbola_random_rules_and_splits():
    rng = np.random.RandomState(7)
    x = 10**4
    flip_pool = [2, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for trial in range(20):
        q = int(rng.choice([3, 5]))
        chi = build_real_character(q)
        k = int(rng.choice([2, 3, 4]))
        size = int(rng.randint(0, 4))
        flips = tuple(sorted({int(p) for p in rng.choice(flip_pool, size=size, replace=False)} - {q}))
        g = modified_character(ModificationPlan(character=chi, flipped_primes=flips))
        f = g.truncated(k)
        direct = direct_summatory(f, x, schedule=[x]).final[1]
        g_vals = g.values(1, x)
        g_sum = PrefixSummatory(g.values(1, x).values)
        h_t = kfree_factor(k, g, x)
        h_vals = h_t
        h_sum = PrefixSummatory(h_t.values)
        for _ in range(5):
            u = float(rng.uniform(1.0, float(x)))
            split = explicit_split(x, u, x / u)
            assert hyperbola_sum(h_sum, g_sum, h_vals, g_vals, split) == direct


def test_oracle_domain_errors(chi3):
    g = character_rule(chi3)
    small = PrefixSummatory(g.values(1, 100).values)
    with pytest.raises(OracleDomainError):
        small(101)
    split = sqrt_split(100)  # floors 10, 10
    with pytest.raises(ShapeError):
        hyperbola_sum(small, small, g.values(2, 20), g.values(1, 20), split)
    with pytest.raises(OracleDomainError):
        hyperbola_sum(small, small, g.values(1, 20), g.values(1, 9), split)
    k_sum = PrefixSummatory(np.array([1, -1], dtype=np.int64), k=2)
    with pytest.raises(OracleDomainError):
        k_sum(10**6)
    mapped = streamed_summatory_map(g, [10, 100])
    assert mapped(10) == g.values(1, 10).values.sum()
    with pytest.raises(OracleDomainError):
        mapped(55)


def test_kth_power_oracle_substitution(chi3):
    # M_h(y) over a k-th-power-supported h equals the inner short sum
    x = 10**4
    g = modified_character(ModificationPlan(character=chi3))
    h_t = kfree_factor(3, g, x)
    h_direct = PrefixSummatory(h_t.values)
    mu = sieve_mobius_segment(1, 21).values.astype(np.int64)
    gv = g.segment_values(1, 21).astype(np.int64)
    h_short = PrefixSummatory(mu * gv, k=3)
    for y in (1, 7, 8, 26, 27, 28, 1000, 9999, 10**4):
        assert h_short(y) == h_direct(y)


def test_capacity_budgets(chi3):
    from kfreesums import CapacityError

    # each message names the refused value and the budget it exceeds
    stream = f"{summatory.MAX_STREAM_LIMIT}"
    with pytest.raises(CapacityError, match=f"limit 5000000000 .*budget {stream}"):
        direct_summatory(character_rule(chi3, k=2), 5 * 10**9)
    with pytest.raises(CapacityError, match=f"limit 5000000000 .*budget {stream}"):
        mertens(5 * 10**9)
    recursive = f"{summatory.MAX_RECURSIVE_MERTENS}"
    with pytest.raises(CapacityError, match=f"limit 2000000000 .*budget {recursive}"):
        mertens_recursive(2 * 10**9)
    with pytest.raises(CapacityError, match=f"limit {10**18} .*budget {stream}"):
        kfree_hyperbola_sum(character_rule(chi3), 2, sqrt_split(10**18))


@pytest.mark.parametrize("q, flips, k, x, u", [
    (3, (), 2, 10**5, None),
    (15, (7, 11), 3, 2 * 10**5, 1234.5),
    (5, (2, 3), 2, 54321, 17.0),
])
def test_kfree_hyperbola_streams_only_queried_arguments(q, flips, k, x, u, monkeypatch):
    """Every argument the g stream checkpoints is read by hyperbola_sum."""
    chi = build_real_character(q)
    g = modified_character(ModificationPlan(character=chi, flipped_primes=flips))
    split = optimal_split(x, k) if u is None else explicit_split(x, u, x / u)
    streamed, queried = [], set()
    stream_map = summatory.streamed_summatory_map

    def recording_map(rule, args, **kwargs):
        streamed.extend(args)
        oracle = stream_map(rule, args, **kwargs)
        return lambda y: queried.add(y) or oracle(y)

    monkeypatch.setattr(summatory, "streamed_summatory_map", recording_map)
    value = kfree_hyperbola_sum(g, k, split)
    assert value == direct_summatory(g.truncated(k), x, schedule=[x]).final[1]
    assert streamed and set(streamed) <= queried


def test_series_invariants_enforced():
    with pytest.raises(RangeError):
        from kfreesums import PartialSumSeries

        PartialSumSeries("bad", [(10, 3), (5, 1)], [(10, 3), (5, 3)])
    with pytest.raises(RangeError):
        from kfreesums import PartialSumSeries

        PartialSumSeries("bad", [(10, 11)], [(10, 11)])


def test_series_csv(tmp_path, chi3):
    series = direct_summatory(character_rule(chi3, k=2), 100, schedule=[10, 100])
    path = tmp_path / "series.csv"
    series.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "x,M,abs_max"
    assert "\r" not in text
    assert len(text.splitlines()) == 3
