import math
import re
import threading
import time
import tracemalloc
from bisect import bisect_left
from itertools import accumulate
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import kfreesums
from kfreesums import convolution, summatory, workspace
from kfreesums import (
    CapacityError,
    DeviationBudget,
    HyperbolaSplit,
    MultiplicativeRule,
    OracleDomainError,
    PrefixSummatory,
    RangeError,
    ShapeError,
    SmoothSummatory,
    build_real_character,
    character_rule,
    character_table,
    checkpoint_schedule,
    compare_methods,
    completed_character,
    deviation_factor,
    deviation_sum,
    dirichlet_convolve,
    direct_summatory,
    direct_value,
    envelope_ratio,
    explicit_split,
    figure1,
    fit_exponent,
    growth_report,
    hyperbola_sum,
    introot,
    kfree_factor,
    kfree_hyperbola_sum,
    kronecker_symbol,
    mertens,
    mertens_recursive,
    mobius_rule,
    ModificationPlan,
    modified_character,
    one_rule,
    optimal_split,
    pointwise_product,
    power_envelope,
    sieve_mobius_segment,
    sqrt_split,
    stream_summatory,
    streamed_summatory_map,
    summatory_mu_chi,
    synthetic_power_series,
    verify_deviation_budget,
)
from kfreesums.sieve import DEFAULT_SEGMENT_SIZE, MAX_SPF_BYTES

from oracles import (
    DictSummatory,
    kfree_sum_sublinear,
    mertens_memo_recursion,
    mobius_brute,
    partial_sum_enumeration,
    primes_trial,
    rule_value_brute,
)


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
    # 16 windows, so the workers overlap
    a = direct_summatory(f, 10**6, segment_size=2**16, threads=1)
    b = direct_summatory(f, 10**6, segment_size=2**16, threads=4)
    assert a.checkpoints == b.checkpoints
    assert a.running_abs_max == b.running_abs_max


@pytest.mark.parametrize("f", [mobius_rule(), MultiplicativeRule(base=-1)], ids=["mu", "liouville"])
def test_liouville_stream_thread_and_segment_identity(f):
    # the -1 base streams through the Liouville kernel; its series must not
    # depend on how the range is cut into windows or on the thread count
    runs = [direct_summatory(f, 3 * 10**6, segment_size=size, threads=threads)
            for size, threads in ((2**20, 1), (2**20, 2), (2**12, 1))]
    for run in runs[1:]:
        assert run.checkpoints == runs[0].checkpoints
        assert run.running_abs_max == runs[0].running_abs_max


def assert_naive_prefix(vals, schedule, segment_size, threads):
    """The stream of `vals` equals a full cumsum and running max of |prefix|."""
    n = len(vals)
    series = stream_summatory(lambda lo, hi: vals[lo - 1 : hi], n, schedule=schedule,
                              segment_size=segment_size, threads=threads)
    prefix = np.cumsum(vals, dtype=np.int64)
    running = np.maximum.accumulate(np.abs(prefix))
    xs = sorted({x for x in schedule if 1 <= x <= n} | {n})
    assert series.checkpoints == [(x, int(prefix[x - 1])) for x in xs]
    assert series.running_abs_max == [(x, int(running[x - 1])) for x in xs]


B = summatory.BLOCK


def bounded_walk_steps(steps, dtype):
    """`steps` clipped so that every prefix P(t) keeps |P(t)| <= t, as a
    series must.  Each step stays between 0 and its drawn value, so steps
    drawn from the whole int8 range keep most of their size once t grows."""
    out, at = [], 0
    for t, step in enumerate(steps.tolist(), 1):
        nxt = min(max(at + step, -t), t)
        out.append(nxt - at)
        at = nxt
    return np.array(out, dtype=dtype)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stream_matches_naive_prefix(data):
    # any values, schedule, window length and thread count; schedules and
    # windows at and next to block edges, and a checkpoint at every integer
    n = data.draw(st.integers(1, 3000))
    dtype = data.draw(st.sampled_from([np.int8, np.int64]))
    if data.draw(st.booleans()):
        vals = data.draw(arrays(dtype, n, elements=st.integers(-1, 1)))
    else:
        vals = bounded_walk_steps(data.draw(arrays(np.int8, n)), dtype)
    edges = st.builds(lambda m, d: m * B + d, st.integers(0, n // B + 1), st.sampled_from([-1, 0, 1]))
    schedule = data.draw(st.one_of(
        st.lists(st.integers(1, n), max_size=60),
        st.lists(edges, max_size=60),
        st.just(list(range(1, n + 1))),
    ))
    segment_size = data.draw(st.one_of(
        st.integers(1, 4096),
        st.sampled_from([B - 1, B, B + 1, 2 * B + 1, 3 * B]),
    ))
    threads = data.draw(st.sampled_from([1, 2, 4]))
    assert_naive_prefix(vals, schedule, segment_size, threads)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reduce_window_matches_naive_prefix(data):
    # every block length up to BLOCK, on short windows: ends at and next to
    # block edges, at random, and at every position
    block = data.draw(st.one_of(st.integers(1, B), st.sampled_from([1, 2, B - 1, B])))
    n = data.draw(st.integers(1, 12 * block))
    # int8 prefixes for values in {-1, 0, 1}; int16 ones for larger int8
    # values once max|v| * block > 127, and int64 ones for int64 values
    dtype, elements = data.draw(st.sampled_from([
        (np.int8, st.integers(-1, 1)),
        (np.int8, st.integers(-2, 2)),
        (np.int8, st.integers(-128, 127)),
        (np.int64, st.integers(-1, 1)),
    ]))
    vals = data.draw(arrays(dtype, n, elements=elements))
    edges = st.builds(lambda m, d: m * block + d, st.integers(0, n // block + 1), st.sampled_from([-2, -1, 0]))
    ends = data.draw(st.one_of(
        st.lists(st.integers(0, n - 1)),
        st.lists(edges),
        st.just(list(range(n))),
    ))
    assert_reduce_window_naive(vals, ends, block)


@pytest.mark.parametrize("value, block", [
    (2, 64), (-2, 64), (2, 63), (127, 1), (-128, 1), (127, 64), (-128, 64),
])
@pytest.mark.parametrize("every", [False, True], ids=["one-end", "every-end"])
def test_reduce_window_at_the_int8_prefix_bound(value, block, every):
    # max|v| * block <= 127 keeps a block's prefixes in int8: 2 * 63 does,
    # and 2 * 64 = 128, a block of 64 twos, is the first product past it
    n = 5 * block + 3
    vals = np.full(n, value, dtype=np.int8)
    vals[2 * block : 3 * block] = -1
    assert_reduce_window_naive(vals, list(range(n)) if every else [n - 1], block)


def assert_reduce_window_naive(vals, ends, block):
    """_reduce_window equals a full cumsum and its running max and min."""
    n = len(vals)
    ends = sorted({e for e in ends if 0 <= e < n} | {n - 1})
    at, tops, bottoms = summatory._reduce_window(vals, ends, block)
    prefix = np.cumsum(vals, dtype=np.int64).tolist()
    assert at == [prefix[e] for e in ends]
    assert tops == [max(prefix[: e + 1]) for e in ends]
    assert bottoms == [min(prefix[: e + 1]) for e in ends]


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_stream_block_edges(dtype, threads):
    # a 2^18-value window takes blocks of BLOCK values, the 2^17 + 5 after
    # it shorter ones; checkpoints at and next to every multiple of BLOCK
    n = 2**18 + 2**17 + 5
    assert summatory._block_length(2**18) == B > summatory._block_length(2**17 + 5)
    vals = np.random.default_rng(threads).integers(-1, 2, n).astype(dtype)
    points = [m * B + d for m in range(1, n // B + 1) for d in (-1, 0, 1)]
    assert_naive_prefix(vals, points, 2**18, threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_stream_past_the_int8_prefix_bound(dense, threads):
    # int8 values up to 2 in a 2^18-value window: 2 * BLOCK = 128 leaves the
    # int8 prefix bound, and one block of 64 twos sums to exactly 128
    n = 2**18
    vals = np.random.default_rng(threads).integers(-2, 3, n).astype(np.int8)
    vals[1000 * B : 1001 * B] = 2
    points = [m * B + d for m in range(1, n // B + 1) for d in (-1, 0, 1)] if dense else [10**5]
    assert_naive_prefix(vals, points, 2**18, threads)


@pytest.mark.parametrize(
    "window, limit, message",
    [
        (lambda lo, hi: np.full(hi - lo + 1, 0.5), 10, r"window \[1, 10\] has float64"),
        (lambda lo, hi: np.ones(hi - lo, dtype=np.int8), 100, r"window \[1, 100\] .* shape \(99,\)"),
        (lambda lo, hi: np.ones((hi - lo + 1, 1), dtype=np.int8), 10, r"window \[1, 10\]"),
        (lambda lo, hi: np.ones(hi - lo + 1, dtype=np.uint64), 10, r"window \[1, 10\] has uint64"),
        (lambda lo, hi: np.ones(hi - lo + 1, dtype=bool), 10, r"window \[1, 10\] has bool"),
        # only the last window is short, and it is found after the others are folded
        (lambda lo, hi: np.ones(hi - lo + (hi < 300), dtype=np.int8), 300, r"window \[257, 300\]"),
    ],
)
def test_stream_rejects_malformed_windows(window, limit, message, monkeypatch):
    monkeypatch.setattr(workspace, "_FREE", [])
    bound = []

    def recorded(lo, hi):
        bound.append(workspace._BOUND.workspace)
        return window(lo, hi)

    with pytest.raises(ShapeError, match=message) as raised:
        stream_summatory(recorded, limit, segment_size=128, threads=2)
    # the raise dropped the suspended walk, which returned its one workspace,
    # although `raised` still holds the traceback and so the stream's frame
    assert getattr(workspace._BOUND, "workspace", None) is None
    assert len(set(map(id, bound))) == 1 and workspace._FREE == bound[:1]


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(chi3, threads):
    with pytest.raises(RangeError, match=f"got {threads}$"):
        direct_summatory(character_rule(chi3, k=2), 1000, threads=threads)


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_windows_run_in_order_on_the_calling_thread(chi3, threads):
    f = character_rule(chi3, k=2)
    caller, active = threading.get_ident(), threading.active_count()
    events = []

    def values(lo, hi):
        events.append(("start", lo, threading.get_ident(), threading.active_count()))
        time.sleep(1e-3)  # room for a window run ahead to start meanwhile
        out = f.segment_values(lo, hi)
        events.append(("end", lo, threading.get_ident(), threading.active_count()))
        return out

    series = stream_summatory(values, 10**5, segment_size=2**12, threads=threads)
    assert series == stream_summatory(f.segment_values, 10**5, segment_size=2**12, threads=1)
    assert {(ident, count) for _, _, ident, count in events} == {(caller, active)}
    # each window starts only after the previous callback returned
    assert [kind for kind, *_ in events] == ["start", "end"] * (len(events) // 2)
    starts = [lo for kind, lo, *_ in events if kind == "start"]
    assert starts == sorted(set(starts)) and starts[0] == 1 and len(starts) == 25
    assert [lo for kind, lo, *_ in events if kind == "end"] == starts
    assert threading.active_count() == active


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
    # OEIS A084237
    assert mertens(10**7) == mertens_recursive(10**7) == 1037
    assert mertens(10**8) == mertens_recursive(10**8) == 1928


def _odd_upper_half(x):
    """How many odd n lie in (x // 2, x], the values mertens sieves."""
    return (x + 1) // 2 - (x // 2 + 1) // 2


# mertens sieves the odd n in (x // 2, x] in windows of segment_size of
# them: limits where that count is three windows or one off it, and where
# x // 2 is on or one off 6 segment_size, an edge of such windows counted
# from 1, each at odd and even x
@pytest.mark.parametrize("segment_size", [1, 2, 63, 64, 65, 1000])
def test_mertens_at_window_edges(segment_size):
    n = 3 * segment_size
    xs = [x for x in range(4 * n - 12, 4 * n + 13) if abs(_odd_upper_half(x) - n) <= 1]
    xs += [2 * h + r for h in (2 * n - 1, 2 * n, 2 * n + 1) for r in (0, 1)]
    assert {_odd_upper_half(x) - n for x in xs} >= {-1, 0, 1} and {x % 2 for x in xs} == {0, 1}
    for x in xs:
        assert mertens(x, segment_size=segment_size) == mertens_recursive(x), x


def _recursion_seed(x):
    # the sieved prefix S of mertens_recursive, and A = x // (S + 1)
    s = min(x, max(2 * introot(x * x, 3), 1024))
    return s, x // (s + 1)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(1, 3 * 10**6))
def test_mertens_recursive_matches_memo_recursion(x):
    assert mertens_recursive(x) == mertens_memo_recursion(x)


def _edge_points():
    points = {1, 2, 3, 1023, 1024, 1025, 2 * 10**6, 3 * 10**6}
    for r in (33, 1000, 1732):
        points |= {r * r - 1, r * r, r * (r + 1)}
    for x in (10**4, 10**5, 10**6):  # S and S + 1 for the seed at x
        s, _ = _recursion_seed(x)
        points |= {s, s + 1}
    # the least x with A >= t, where A steps up; the seed leaves its
    # floor 1024 near x = 11600
    for t in (1, 2, 3, 10, 11, 12, 40, 72):
        x = bisect_left(range(3 * 10**6), t, key=lambda x: _recursion_seed(x)[1])
        assert _recursion_seed(x - 1)[1] < t <= _recursion_seed(x)[1]
        points |= {x - 1, x, x + 1}
    return sorted(points)


@pytest.mark.parametrize("x", _edge_points())
def test_mertens_recursive_edges(x):
    expect = mertens_memo_recursion(x)
    assert mertens_recursive(x) == expect
    if x <= 2 * 10**6:
        assert mertens(x, segment_size=2**16) == expect


def test_mertens_recursive_reach():
    # OEIS A084237; M(10^10) is the last value within the budget
    assert mertens_recursive(10**9) == -222
    assert summatory.MAX_RECURSIVE_MERTENS == 10**10
    assert mertens_recursive(10**10) == -33722


@pytest.mark.parametrize("bad", [1e6, 10.5, "100", None])
def test_limits_must_be_integers(bad, chi3):
    shown = re.escape(repr(bad))
    for call in (
        lambda: mertens(bad),
        lambda: mertens_recursive(bad),
        lambda: direct_summatory(character_rule(chi3, k=2), bad),
        lambda: summatory_mu_chi(chi3, bad),
        lambda: stream_summatory(lambda lo, hi: np.ones(hi - lo + 1, np.int8), bad),
    ):
        with pytest.raises(RangeError, match=f"limit {shown} is not an integer$"):
            call()


@pytest.mark.parametrize("limit, error, message", [
    (0, RangeError, "limit must be >= 1, got 0"),
    (2.5, RangeError, "limit 2.5 is not an integer"),
    (True, RangeError, "limit True is not an integer"),
    ("5", RangeError, "limit '5' is not an integer"),
    (4 * 10**9 + 1, CapacityError, "limit 4000000001 beyond streaming budget 4000000000"),
])
def test_direct_value_reads_its_limit_as_direct_summatory_does(limit, error, message):
    for call in (direct_value, direct_summatory):
        with pytest.raises(error, match=re.escape(message) + "$"):
            call(mobius_rule(), limit)


# every modulus in 3..24 that carries a real character, and override
# primes that include each prime dividing one of them
DIRECT_MODULI = (3, 4, 5, 7, 8, 11, 12, 13, 15, 17, 19, 20, 21, 23, 24)
DIRECT_OVERRIDES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 101)
# window lengths at and next to the 64 rows of _window_sum, and the default
VALUE_SEGMENT_SIZES = (1, 2, 63, 64, 65, 1000, DEFAULT_SEGMENT_SIZE)


@st.composite
def direct_rules(draw):
    base = draw(st.sampled_from(DIRECT_MODULI + (1, -1)))
    if base not in (1, -1):
        base = build_real_character(base)
    overrides = draw(st.dictionaries(st.sampled_from(DIRECT_OVERRIDES), st.sampled_from((-1, 1)),
                                     max_size=4))
    k = draw(st.sampled_from((None, 2, 3, 4)))
    return MultiplicativeRule(base=base, overrides=overrides, k_truncation=k)


@settings(max_examples=80, deadline=None)
@given(rule=direct_rules(), segment_size=st.sampled_from(VALUE_SEGMENT_SIZES), data=st.data())
def test_direct_value_matches_the_series(rule, segment_size, data):
    # at most 300 windows, so one-value windows stay cheap; limits at and
    # next to window edges as well as anywhere
    top = min(2 * 10**5, 300 * segment_size)
    x = data.draw(st.integers(1, top) | st.builds(
        lambda m, d: max(1, min(top, m * segment_size + d)),
        st.integers(1, max(1, top // segment_size)), st.sampled_from([-1, 0, 1])), label="x")
    series = direct_summatory(rule, x, schedule=[x], segment_size=segment_size)
    assert direct_value(rule, x, segment_size) == series.final[1]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 2**20, 2**20 + 63])
@pytest.mark.parametrize("sign", [1, -1])
def test_window_sum_at_its_int8_bound(n, sign):
    # equal values put every column sum of the 64 int8 rows at +-64
    assert summatory._window_sum(np.full(n, sign, dtype=np.int8)) == sign * n


CHI3 = build_real_character(3)
_CHI3_AT_7 = modified_character(ModificationPlan(character=CHI3, flipped_primes=(7,)))
_SERIES = direct_summatory(character_rule(CHI3), 10**4, schedule=checkpoint_schedule(10**4))


@pytest.mark.parametrize("call, shown", [
    (lambda: direct_summatory(mobius_rule(), 100, threads=1.5), "threads 1.5"),
    (lambda: direct_summatory(mobius_rule(), 100, threads="2"), "threads '2'"),
    (lambda: direct_summatory(mobius_rule(), 100, threads=True), "threads True"),
    (lambda: direct_summatory(mobius_rule(), True), "limit True"),
    (lambda: direct_summatory(mobius_rule(), 100, segment_size=False), "segment_size False"),
    (lambda: direct_summatory(mobius_rule(), 100, segment_size=2.5), "segment_size 2.5"),
    (lambda: mertens(100, segment_size=2.5), "segment_size 2.5"),
    (lambda: direct_value(mobius_rule(), 100, segment_size=2.5), "segment_size 2.5"),
    (lambda: checkpoint_schedule(10.5), "schedule limit 10.5"),
    (lambda: HyperbolaSplit(x=100.0, u_floor=10, v_floor=10), "split x 100.0"),
    (lambda: HyperbolaSplit(x=100, u_floor=10, v_floor="10"), "split v_floor '10'"),
    (lambda: optimal_split(1e4, 2), "split x 10000.0"),
    (lambda: optimal_split(10**4, 2.0), "split order k 2.0"),
    (lambda: sqrt_split(1e4), "split x 10000.0"),
    (lambda: explicit_split(100.0, 10.0, 10.0), "split x 100.0"),
    (lambda: kfree_factor(2, character_rule(CHI3), 20.5), "limit 20.5"),
    (lambda: stream_summatory(lambda lo, hi: np.ones(hi - lo + 1, np.int8), 100,
                              schedule=[10.5, 50]), "schedule entry 10.5"),
    (lambda: direct_summatory(mobius_rule(), 100, schedule=["7"]), "schedule entry '7'"),
    (lambda: growth_report(character_rule(CHI3), CHI3, 100, schedule=[60.5]),
     "schedule entry 60.5"),
    (lambda: verify_deviation_budget(character_rule(CHI3), CHI3, DeviationBudget(), 10**3,
                                     schedule=[100.5]), "schedule entry 100.5"),
    (lambda: synthetic_power_series(0.5, 100, [50.5]), "schedule entry 50.5"),
    (lambda: verify_deviation_budget(character_rule(CHI3), CHI3, DeviationBudget(), "abc"),
     "limit 'abc'"),
    (lambda: figure1("x", "unwritten.csv", "unwritten.svg"), "limit 'x'"),
    (lambda: deviation_sum(character_rule(CHI3), CHI3, "x"), "x 'x'"),
    (lambda: envelope_ratio(_SERIES, power_envelope(0.25), x_min="a"), "x_min 'a'"),
    (lambda: fit_exponent(_SERIES, x_min="a"), "x_min 'a'"),
    (lambda: fit_exponent(_SERIES, x_min=10.5), "x_min 10.5"),
    (lambda: streamed_summatory_map(mobius_rule(), ["5"]), "argument '5'"),
    (lambda: streamed_summatory_map(mobius_rule(), [3, 2.5]), "argument 2.5"),
    (lambda: kronecker_symbol(5, 2.0), "Kronecker symbol n 2.0"),
    (lambda: deviation_factor(_CHI3_AT_7, CHI3, 2.5), "limit 2.5"),
    (lambda: deviation_factor(_CHI3_AT_7, CHI3, True), "limit True"),
    (lambda: deviation_factor(_CHI3_AT_7, CHI3, "5"), "limit '5'"),
    (lambda: growth_report(character_rule(CHI3), CHI3, 100, x_min="5"), "x_min '5'"),
    (lambda: character_table(CHI3, "1", 5), "lo '1'"),
    (lambda: character_table(CHI3, 1.5, 5), "lo 1.5"),
    (lambda: SmoothSummatory(_CHI3_AT_7, "9"), "limit '9'"),
])
def test_counts_sizes_and_splits_must_be_integers(call, shown):
    with pytest.raises(RangeError, match=re.escape(shown) + " is not an integer$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: sieve_mobius_segment(0, 10), "lo must be >= 1, got 0"),
    (lambda: sieve_mobius_segment(10, 9), "hi must be >= 10, got 9"),
    (lambda: introot(-1, 2), "introot argument must be >= 0, got -1"),
    (lambda: introot(10, 0), "introot order must be >= 1, got 0"),
    (lambda: mertens(100, segment_size=0), "segment_size must be >= 1, got 0"),
    (lambda: direct_summatory(mobius_rule(), 100, threads=0), "threads must be >= 1, got 0"),
    (lambda: HyperbolaSplit(x=100, u_floor=0, v_floor=100), "split u_floor must be >= 1, got 0"),
    (lambda: optimal_split(0, 2), "split x must be >= 1, got 0"),
    (lambda: sqrt_split(-4), "split x must be >= 1, got -4"),
    (lambda: kfree_factor(2, character_rule(CHI3), 0), "limit must be >= 1, got 0"),
    (lambda: verify_deviation_budget(character_rule(CHI3), CHI3, DeviationBudget(), 5),
     "limit must be >= 10, got 5"),
    (lambda: figure1(999, "unwritten.csv", "unwritten.svg"), "limit must be >= 1000, got 999"),
    (lambda: kronecker_symbol(5, -1), "Kronecker symbol n must be >= 0, got -1"),
    (lambda: modified_character(ModificationPlan(character=CHI3)).segment_values(0, 10),
     "lo must be >= 1, got 0"),
    (lambda: deviation_factor(_CHI3_AT_7, CHI3, 0), "limit must be >= 1, got 0"),
])
def test_bounds_name_their_minimum_and_the_value(call, message):
    with pytest.raises(RangeError, match=re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("u, v", [
    (math.nan, 10.0), (10.0, math.inf), (-math.inf, 1.0), ("10", 10.0), (True, 100), (100, False),
])
def test_explicit_split_needs_finite_reals(u, v):
    with pytest.raises(RangeError, match=re.escape(f"split U = {u!r}, V = {v!r}")):
        explicit_split(100, u, v)


def test_integer_types_are_read_as_python_ints():
    split = HyperbolaSplit(x=np.int64(100), u_floor=np.int32(10), v_floor=10)
    assert split == sqrt_split(100) and type(split.x) is int and type(split.u_floor) is int
    assert optimal_split(np.int64(128), np.int8(3)) == optimal_split(128, 3)
    f = mobius_rule()
    assert direct_summatory(f, 1000, threads=np.int64(2), segment_size=np.int32(64)) == \
        direct_summatory(f, 1000)
    assert checkpoint_schedule(np.int64(100)) == checkpoint_schedule(100)
    series = direct_summatory(f, 100, schedule=[np.int64(10), np.int32(50)])
    assert series == direct_summatory(f, 100, schedule=[10, 50])
    assert [type(x) for x, _ in series.checkpoints] == [int, int, int]
    with pytest.raises(RangeError, match="schedule limit must be >= 1, got 0"):
        checkpoint_schedule(0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(2, 200))
def test_optimal_split_floors_match_the_exact_power_root(data, k):
    # random x below 2^63, and exact m-th powers and their neighbours, past
    # 2^63 too, where the Decimal estimate sits on the boundary
    m = 2 * k + 1
    x = data.draw(st.one_of(st.integers(1, 2**63 - 1),
                            st.builds(lambda r, d: max(1, r**m + d), st.integers(1, 2), st.integers(-1, 1))))
    split = optimal_split(x, k)
    assert (split.u_floor, split.v_floor) == (introot(x ** (2 * k), m), introot(x, m))


def test_optimal_split_at_a_large_order_is_fast():
    start = time.process_time()
    split = optimal_split(2**63 - 1, 10**6)
    assert time.process_time() - start < 1
    # checked once against the exact integer powers, which take minutes
    assert (split.u_floor, split.v_floor) == (9223170654792814579, 1)


def test_limits_accept_integer_types():
    assert mertens_recursive(np.int64(10**5)) == mertens(np.int32(10**5)) == -48
    with pytest.raises(RangeError, match="got -5$"):
        direct_summatory(mobius_rule(), -5)


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


def _dense_support(table):
    """A value table over [1, N] as the support (1..N, values), zeros kept."""
    assert table.lo == 1
    return np.arange(1, table.hi + 1), table.values


def _kth_power_support(k, g, limit):
    """h's support (m^k, mu(m) g(m)^k) for m^k <= limit, from the dense
    factor table, so it shares no step with kfree_hyperbola_sum."""
    h = kfree_factor(k, g, limit).values
    n = np.flatnonzero(h) + 1
    return n, h[n - 1]


def test_hyperbola_identity_element(chi3):
    # h = unit: the sum reduces to M_g(x) for any split
    x = 10**4
    g = character_rule(chi3)
    g_sum = PrefixSummatory(g.values(1, x).values)
    eps = np.zeros(x, dtype=np.int8)
    eps[0] = 1
    h_sum = PrefixSummatory(eps)
    unit = (np.array([1]), np.array([1]))
    for split in (optimal_split(x, 2), sqrt_split(x), explicit_split(x, 20.0, 500.0)):
        assert hyperbola_sum(h_sum, g_sum, unit, _dense_support(g.values(1, x)), split) == g_sum(x)


def test_hyperbola_degenerate_v1(chi3):
    # V = 1 collapses to sum_n h(n) M_g(x/n)
    x = 10**4
    g = character_rule(chi3)
    h_t = kfree_factor(2, g, x)
    g_sum = PrefixSummatory(g.values(1, x).values)
    h_sum = PrefixSummatory(h_t.values)
    split = explicit_split(x, float(x), 1.0)
    expect = sum(
        h_t.value_at(n) * g_sum(x // n) for n in range(1, x + 1) if h_t.value_at(n)
    )
    for h_support in (_dense_support(h_t), _kth_power_support(2, g, x)):
        assert hyperbola_sum(h_sum, g_sum, h_support, _dense_support(g.values(1, 1)),
                             split) == expect
    direct = direct_summatory(g.truncated(2), x, schedule=[x]).final[1]
    assert expect == direct


def test_hyperbola_equals_direct_for_figure_function(chi3):
    x = 10**5
    g = character_rule(chi3)
    f = g.truncated(2)
    direct = direct_summatory(f, x, schedule=[x]).final[1]
    h_support = _kth_power_support(2, g, x)
    mu = sieve_mobius_segment(1, 316).values.astype(np.int64)
    gv = g.segment_values(1, 316).astype(np.int64)
    h_sum = PrefixSummatory(mu * np.abs(gv), k=2)
    g_support = _dense_support(g.values(1, x))
    g_sum = chi3.partial_sum
    for split in (optimal_split(x, 2), sqrt_split(x), explicit_split(x, float(x), 1.0)):
        assert hyperbola_sum(h_sum, g_sum, h_support, g_support, split) == direct


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
        g_support = _dense_support(g.values(1, x))
        g_sum = PrefixSummatory(g.values(1, x).values)
        h_support = _kth_power_support(k, g, x)
        h_sum = PrefixSummatory(kfree_factor(k, g, x).values)
        for _ in range(5):
            u = float(rng.uniform(1.0, float(x)))
            split = explicit_split(x, u, x / u)
            assert hyperbola_sum(h_sum, g_sum, h_support, g_support, split) == direct


@pytest.mark.parametrize("n, values, message", [
    ([1, 3, 2], [1, 1, 1], r"h support n\[2\] = 2 is below 1 or not ascending"),
    ([1, 2, 2], [1, 1, 1], r"h support n\[2\] = 2 is below 1 or not ascending"),
    ([0, 1], [1, 1], r"h support n\[0\] = 0 is below 1"),
    ([-5], [1], r"h support n\[0\] = -5 is below 1"),
    ([1, 2], [1, 1, 1], r"h support needs one int64 value per int64 n, got n int64\(2,\) and "
                        r"values int64\(3,\)$"),
    ([1.0, 2.0], [1, 1], r"h support needs .*, got n float64\(2,\)"),
    ([1, 2], [0.5, 1.0], r"h support needs .* and values float64\(2,\)$"),
    (np.array([1, 2], dtype=np.uint64), [1, 1], r"h support needs .*, got n uint64\(2,\)"),
    ([[1, 2]], [[1, 1]], r"h support needs .*, got n int64\(1, 2\)"),
])
def test_hyperbola_support_shape_errors(chi3, n, values, message):
    g = character_rule(chi3)
    small = PrefixSummatory(g.values(1, 100).values)
    g_support = _dense_support(g.values(1, 10))
    split = sqrt_split(100)  # floors 10, 10
    with pytest.raises(ShapeError, match=message):
        hyperbola_sum(small, small, (np.array(n), np.array(values)), g_support, split)
    # the g side is checked the same way, past its floor too
    with pytest.raises(ShapeError, match=message.replace("h support", "g support")):
        hyperbola_sum(small, small, g_support, (np.array(n), np.array(values)), split)
    with pytest.raises(ShapeError, match=r"g support n\[3\] = 40 is below 1 or not ascending"):
        hyperbola_sum(small, small, g_support, (np.array([1, 2, 50, 40]), np.ones(4, int)), split)


def test_oracle_domain_errors(chi3):
    g = character_rule(chi3)
    small = PrefixSummatory(g.values(1, 100).values)
    with pytest.raises(OracleDomainError):
        small(101)
    # a support ending before its floor is zero past its last n
    split = sqrt_split(100)  # floors 10, 10
    short = (np.arange(1, 10), g.values(1, 9).values)
    assert hyperbola_sum(small, small, short, short, split) == hyperbola_sum(
        small, small, _dense_support(g.values(1, 10)), short, split) - g.values(1, 10).value_at(10) * small(10)
    k_sum = PrefixSummatory(np.array([1, -1], dtype=np.int64), k=2)
    with pytest.raises(OracleDomainError):
        k_sum(10**6)


def test_streamed_summatory_map_is_exact(chi3):
    # one entry per distinct argument y >= 0; negative arguments are dropped
    g = character_rule(chi3, k=2)
    got = streamed_summatory_map(g, [100, 0, 10, -3, 10, 1])
    assert got == {y: partial_sum_enumeration(lambda n: rule_value_brute(g, n), y)
                   for y in (0, 1, 10, 100)}
    assert streamed_summatory_map(g, [-1]) == {}


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


# -- array oracles: each element against its scalar definition ----------

INT64_MAX = 2**63 - 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_prefix_summatory_roots_match_introot(data):
    k = data.draw(st.integers(1, 60), label="k")
    values = data.draw(arrays(np.int64, st.integers(0, 80),
                              elements=st.integers(-10**6, 10**6)), label="values")
    n = len(values)
    cum = [0, *accumulate(values.tolist())]
    # m^k - 1, m^k, m^k + 1 for every m up to two past the prefix, where
    # those are int64 arguments, and the largest int64 argument
    edges = sorted({m**k + d for m in range(1, n + 3) for d in (-1, 0, 1)
                    if 0 <= m**k + d <= INT64_MAX} | {INT64_MAX})
    args = data.draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, INT64_MAX)),
                              min_size=1, max_size=20), label="args") + [INT64_MAX]
    expect = {y: cum[r] if (r := introot(y, k)) <= n else None for y in args}
    oracle = PrefixSummatory(values, k=k)
    for y, m in expect.items():
        if m is None:
            with pytest.raises(OracleDomainError, match=rf"M\({y}\)"):
                oracle(y)
        else:
            assert oracle(y) == m and type(oracle(y)) is int
    inside = [y for y in args if expect[y] is not None]
    got = oracle(np.array(inside, dtype=np.int64).reshape(-1, 1))
    assert got.dtype == np.int64 and got.shape == (len(inside), 1)
    assert got.ravel().tolist() == [expect[y] for y in inside]
    outside = [y for y in args if expect[y] is None]
    if outside:
        with pytest.raises(OracleDomainError, match=rf"M\({outside[0]}\)"):
            oracle(np.array(args, dtype=np.int64))


def test_prefix_summatory_rejects_wrapping_prefix_and_bad_arguments():
    with pytest.raises(CapacityError, match="prefix sum to 2 is 9223372036854775808"):
        PrefixSummatory(np.array([2**62, 2**62], dtype=np.int64))
    # partial sums that stay in int64 are exact even though the bound fails
    oracle = PrefixSummatory(np.array([2**62, 2**62 - 1, -2**62, -2**62 + 5], dtype=np.int64))
    assert oracle(np.array([1, 2, 4])).tolist() == [2**62, INT64_MAX, 4]
    for y in (-1, 2**63, 2**70, 2.0):
        with pytest.raises(OracleDomainError, match=rf"M\({y}\)"):
            oracle(y)


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([3, 4, 5, 7, 8, 12, 15]),
       ys=st.lists(st.integers(-2**63, INT64_MAX), max_size=20),
       small=st.lists(st.integers(-5, 300), max_size=20))
def test_character_partial_sum_array_matches_scalar_definition(q, ys, small):
    chi = build_real_character(q)

    def by_period(y):  # the O(q) full-period cancellation, element by element
        return sum(chi.value(n) for n in range(1, y % q + 1)) if y > 0 else 0

    got = chi.partial_sum(np.array(ys + small, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == [by_period(y) for y in ys + small]
    for y in small:
        assert chi.partial_sum(y) == sum(chi.value(n) for n in range(1, y + 1))
    assert chi.partial_sum(10**30 + 2) == by_period(10**30 + 2)


def _hyperbola_reference(h_values, g_values, mh, mg, split):
    """The identity term by term in Python ints, over dict-valued tables."""
    x = split.x
    return (sum(v * mg[x // n] for n, v in h_values.items() if n <= split.u_floor)
            + sum(v * mh[x // n] for n, v in g_values.items() if n <= split.v_floor)
            - mg[split.v_floor] * mh[split.u_floor])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hyperbola_sum_is_exact_near_int64_limits(data):
    x = data.draw(st.one_of(st.integers(1, 3 * 10**5), st.integers(2**16, 3 * 10**5)), label="x")
    u = data.draw(st.one_of(st.integers(1, x), st.sampled_from([1, x])), label="floor U")
    split = HyperbolaSplit(x=x, u_floor=u, v_floor=x // u)
    near = st.sampled_from([2**62, -2**62, 2**62 - 1, -2**62 + 1, 2**31, -2**31])
    entry = st.one_of(st.integers(-3, 3), near, st.integers(-2**62, 2**62))
    m_size = data.draw(st.sampled_from([3, 2**31, 2**62]), label="max |M|")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))

    def support(floor, label):
        at = data.draw(st.lists(st.one_of(
            st.integers(1, floor), st.sampled_from([1, floor, min(2**16, floor), min(2**16 + 1, floor)])),
            max_size=20), label=f"{label} positions")
        # near-2^62 entries inside one run of equal x // n, (x // (q + 1), x // q],
        # so that a run's sum can pass int64
        q = x // data.draw(st.one_of(st.integers(1, floor), st.just(floor)), label=f"{label} run")
        in_run = data.draw(st.lists(st.integers(x // (q + 1) + 1, min(x // q, floor)), max_size=6),
                           label=f"{label} run positions")
        entries = {n: data.draw(entry, label=f"{label}({n})") for n in at}
        entries |= {n: data.draw(near, label=f"{label}({n})") for n in in_run}
        # nonzero terms past the floor must not be read: they would change
        # the sum, or ask for M(x // n) = M(0), which the oracles do not hold
        if data.draw(st.booleans(), label=f"{label} dense"):  # 1..floor + 3, zeros kept
            past = range(floor + 1, floor + 4)
            n = np.arange(1, floor + 4, dtype=np.int64)
        else:
            past = data.draw(st.lists(st.one_of(st.just(floor + 1), st.integers(floor + 1, 2**62)),
                                      min_size=1, max_size=3, unique=True), label=f"{label} past")
            n = np.array(sorted({*entries, *past}), dtype=np.int64)
        terms = {i: 0 for i in n.tolist()} | entries | {i: 2**62 for i in past}
        return (n, np.array([terms[i] for i in n.tolist()], dtype=np.int64)), entries

    h_support, h_entries = support(split.u_floor, "h")
    g_support, g_entries = support(split.v_floor, "g")
    args = set((x // np.arange(1, x + 1)).tolist()) | {split.u_floor, split.v_floor}

    def sums():
        return {y: int(m) for y, m in zip(args, rng.integers(-m_size, m_size, len(args),
                                                             endpoint=True))}

    mh, mg = sums(), sums()
    value = hyperbola_sum(DictSummatory(mh), DictSummatory(mg), h_support, g_support, split)
    assert value == _hyperbola_reference(h_entries, g_entries, mh, mg, split)


def test_hyperbola_dot_at_the_int64_edge():
    # h(1) M_g(4) + h(2) M_g(2) = 2 * 2^62 = 2^63, one past int64: the bound
    # count * max|h| * max|M_g| = 2^63 sends the block to Python ints
    split = HyperbolaSplit(x=4, u_floor=2, v_floor=2)
    h = (np.array([1, 2]), np.full(2, 2**31, dtype=np.int64))
    g = (np.array([1, 2]), np.zeros(2, dtype=np.int64))
    mg = DictSummatory({4: 2**31, 2: 2**31})
    mh = DictSummatory({2: 3})
    assert hyperbola_sum(mh, mg, h, g, split) == 2**63 - 3 * 2**31
    big = HyperbolaSplit(x=2**63, u_floor=2**32, v_floor=2**31)
    with pytest.raises(CapacityError, match=f"x = {2**63} beyond"):
        hyperbola_sum(mh, mg, h, g, big)


def test_capacity_budgets(chi3):
    # each message names the refused value and the budget it exceeds
    stream = f"{summatory.MAX_STREAM_LIMIT}"
    with pytest.raises(CapacityError, match=f"limit 5000000000 .*budget {stream}"):
        direct_summatory(character_rule(chi3, k=2), 5 * 10**9)
    with pytest.raises(CapacityError, match=f"limit 5000000000 .*budget {stream}"):
        mertens(5 * 10**9)
    recursive = f"{summatory.MAX_RECURSIVE_MERTENS}"
    with pytest.raises(CapacityError, match=f"limit 20000000000 .*budget {recursive}"):
        mertens_recursive(2 * 10**10)
    with pytest.raises(CapacityError, match=f"needs 30000505952 bytes, budget is {MAX_SPF_BYTES}"):
        kfree_hyperbola_sum(character_rule(chi3), 2, sqrt_split(10**18))
    with pytest.raises(CapacityError, match=f"k-free factor to {2**70} needs {2**70} bytes, "
                                            f"budget is {MAX_SPF_BYTES}"):
        kfree_factor(2, character_rule(chi3), 2**70)


@pytest.mark.parametrize("q, flips, k, x, u", [
    (3, (), 2, 10**5, None),
    (15, (7, 11), 3, 2 * 10**5, 1234.5),
    (5, (2, 3), 2, 54321, 17.0),
])
def test_kfree_hyperbola_streams_nothing(q, flips, k, x, u, monkeypatch):
    """The hyperbola route reads g through its S-smooth oracle, never a stream."""
    chi = build_real_character(q)
    g = modified_character(ModificationPlan(character=chi, flipped_primes=flips))
    split = optimal_split(x, k) if u is None else explicit_split(x, u, x / u)
    direct = direct_summatory(g.truncated(k), x, schedule=[x]).final[1]

    def no_stream(*args, **kwargs):
        raise AssertionError("the hyperbola route streamed")

    monkeypatch.setattr(summatory, "stream_summatory", no_stream)
    assert kfree_hyperbola_sum(g, k, split) == direct


def test_kfree_hyperbola_sieves_the_weights_once(monkeypatch):
    """The route reads h from its k-th-power support: it never builds the
    dense factor table, and one sieve of mu(m) g(m)^k serves both sides."""
    g = modified_character(ModificationPlan(character=build_real_character(15), flipped_primes=(7, 11)))
    x = 2 * 10**5
    direct = direct_summatory(g.truncated(3), x, schedule=[x]).final[1]

    def no_dense_factor(*args, **kwargs):
        raise AssertionError("the hyperbola route built the dense factor table")

    for module in (convolution, kfreesums, summatory):  # every binding of the name
        monkeypatch.setattr(module, "kfree_factor", no_dense_factor, raising=False)
    calls = []
    weights = summatory.kfree_factor_at_powers
    monkeypatch.setattr(summatory, "kfree_factor_at_powers",
                        lambda *args: calls.append(args) or weights(*args))
    for split in (optimal_split(x, 3), sqrt_split(x), explicit_split(x, float(x), 1.0)):
        calls.clear()
        assert kfree_hyperbola_sum(g, 3, split) == direct
        assert len(calls) == 1


_FLIPS4 = (7, 11, 101, 151)


@pytest.mark.parametrize("k, x", [(2, 4 * 10**9 - 17), (3, 4 * 10**9 - 17), (2, 10**8 + 7), (3, 10**8 + 7)])
def test_kfree_hyperbola_matches_the_sublinear_identity(k, x):
    """Past the stream tests' sizes the route equals the m-sum of
    tests/oracles.py, and allocates nothing of length U while it runs."""
    g = modified_character(ModificationPlan(character=build_real_character(15), flipped_primes=_FLIPS4))
    expect = kfree_sum_sublinear(g, k, x)
    for split in (optimal_split(x, k), sqrt_split(x)):
        tracemalloc.start()
        try:
            assert kfree_hyperbola_sum(g, k, split) == expect
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(split.u_floor, 2**24), (split, peak)


@pytest.mark.parametrize("x, expect", [(10**18, -853), (2**63 - 1, 137)])
def test_kfree_hyperbola_reaches_the_int64_limit_at_k3(x, expect):
    """Past the stream cap the route is bounded by its tables alone: at
    k = 3 its theorem2 split reaches 2^63 - 1, where the m-sum of
    tests/oracles.py agrees; at k = 2 the w table passes the byte budget."""
    g = completed_character(build_real_character(3))
    assert kfree_hyperbola_sum(g, 3, optimal_split(x, 3)) == kfree_sum_sublinear(g, 3, x) == expect
    with pytest.raises(CapacityError, match="needs 61356774780 bytes"):
        kfree_hyperbola_sum(g, 2, optimal_split(2**63 - 1, 2))


@pytest.mark.parametrize("g, k, expect", [
    (character_rule(build_real_character(3)), 2, 2),
    (modified_character(ModificationPlan(character=build_real_character(15), flipped_primes=_FLIPS4)), 3, 22),
])
def test_hyperbola_oracles_get_one_argument_per_quotient(g, k, expect, monkeypatch):
    """At U = 10 the g side has V = x // 10 terms, but x // n takes at most
    2 sqrt(x) values: both oracles together get at most 2 isqrt(x) + 2
    arguments, where one per nonzero term would be about 2-3 * 10^5."""
    x = 3 * 10**6 - 777
    assert kfree_sum_sublinear(g, k, x) == expect
    sizes = []

    def counted(oracle):
        return lambda y: sizes.append(np.size(y)) or oracle(y)

    route = summatory.hyperbola_sum
    monkeypatch.setattr(summatory, "hyperbola_sum",
                        lambda h_sum, g_sum, *rest: route(counted(h_sum), counted(g_sum), *rest))
    assert kfree_hyperbola_sum(g, k, HyperbolaSplit(x=x, u_floor=10, v_floor=x // 10)) == expect
    assert sum(sizes) <= 2 * math.isqrt(x) + 2


@pytest.mark.parametrize("base", [1, -1])
def test_hyperbola_route_rejects_constant_bases(base):
    g = MultiplicativeRule(base=base, label=f"constant {base:+d}")
    message = re.escape(f"rule 'constant {base:+d}' has the constant base {base:+d}")
    with pytest.raises(ShapeError, match=message):
        kfree_hyperbola_sum(g, 2, sqrt_split(100))
    with pytest.raises(ShapeError, match=message):
        SmoothSummatory(g, 100)
    # compare_methods hands on f without its truncation, under its own label
    with pytest.raises(ShapeError, match=message):
        compare_methods(g.truncated(2), 2, 100, sqrt_split(100))


# -- the S-smooth oracle of g, against routes that share no code with it --


@st.composite
def smooth_rules(draw):
    """g built on chi mod q with 0-4 flipped primes below 200, completed at
    the primes dividing q by +1 or -1, or left at chi(p) = 0 there."""
    q = draw(st.sampled_from([3, 4, 5, 8, 15]), label="q")
    chi = build_real_character(q)
    flips = draw(st.lists(st.sampled_from([p for p in primes_trial(199) if q % p]),
                          max_size=4, unique=True), label="flips")
    completion = draw(st.sampled_from([1, -1, None]), label="completion at q")
    plan = ModificationPlan(character=chi, flipped_primes=flips,
                            unit_on_q_divisors=completion == 1)
    overrides = {p: v for p, v in plan.overrides().items()
                 if completion is not None or q % p}
    return MultiplicativeRule(base=chi, overrides=overrides)


SMOOTH_CHUNKS = st.sampled_from([1, 5, 64, summatory._SMOOTH_CHUNK])


@settings(max_examples=60, deadline=None)
@given(g=smooth_rules(), ys=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
       chunk=SMOOTH_CHUNKS, extra=st.integers(0, 10**3))
def test_smooth_summatory_matches_direct_stream(g, ys, chunk, extra):
    ys = ys + [0]
    pos = sorted({y for y in ys if y >= 1})
    expect = {0: 0}
    if pos:
        expect.update(direct_summatory(g, pos[-1], schedule=pos).checkpoints)
    with patch.object(summatory, "_SMOOTH_CHUNK", chunk):
        oracle = SmoothSummatory(g, max(ys) + extra)
        got = oracle(np.array(ys, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == [expect[y] for y in ys]
        assert oracle(ys[0]) == expect[ys[0]] and type(oracle(ys[0])) is int


@settings(max_examples=40, deadline=None)
@given(g=smooth_rules(), data=st.data(), chunk=SMOOTH_CHUNKS)
def test_smooth_summatory_differences_match_segments(g, data, chunk):
    # M_g(y) - M_g(y - L) against the segment kernel of g, for y to 2^63 - 1
    length = data.draw(st.integers(1, 4096), label="L")
    y = data.draw(st.one_of(st.integers(length, INT64_MAX), st.just(INT64_MAX)), label="y")
    with patch.object(summatory, "_SMOOTH_CHUNK", chunk):
        got = SmoothSummatory(g, y)(np.array([[y], [y - length]], dtype=np.int64))
    window = g.segment_values(y - length + 1, y).astype(np.int64)
    assert got.shape == (2, 1) and int(got[0, 0]) - int(got[1, 0]) == int(window.sum())


@settings(max_examples=60, deadline=None)
@given(g=smooth_rules(), n=st.integers(1, 2000))
def test_deviation_factor_matches_convolution_of_rules(g, n):
    chi = build_real_character(g.base.modulus)  # equal to g's base, not the same object
    mu_g = pointwise_product(sieve_mobius_segment(1, n), g.values(1, n))
    expect = dirichlet_convolve(mu_g, character_table(chi, 1, n))
    assert np.array_equal(deviation_factor(g, chi, n).values, expect.values[1:])


def test_smooth_summatory_domain(chi3):
    g = modified_character(ModificationPlan(character=chi3, flipped_primes=(5,)))
    oracle = SmoothSummatory(g, 1000)
    assert oracle(np.zeros(0, dtype=np.int64)).shape == (0,)
    for y in (1001, -1, 2**63):
        with pytest.raises(OracleDomainError, match=rf"M\({y}\)"):
            oracle(np.array([5, y], dtype=object))
    with pytest.raises(CapacityError, match=f"limit {2**63} beyond"):
        SmoothSummatory(g, 2**63)
    with pytest.raises(ShapeError, match=re.escape(g.truncated(2).label)):
        SmoothSummatory(g.truncated(2), 1000)
    assert SmoothSummatory(g, 0)(0) == 0


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
