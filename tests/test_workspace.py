"""Window workspaces: reused buffers never change a result, never leak
into a public producer's output, and are really reused."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest

from kfreesums import (
    CapacityError,
    ModificationPlan,
    MultiplicativeRule,
    ShapeError,
    build_real_character,
    character_rule,
    character_table,
    deviation_factor,
    direct_summatory,
    mertens,
    mertens_recursive,
    mobius_rule,
    modified_character,
    one_rule,
    sieve_kfree_segment,
    sieve_mobius_segment,
    sieve_primes,
    stream_summatory,
)
from kfreesums import summatory, workspace
from kfreesums.characters import period_block, tiled_window
from kfreesums.sieve import liouville_kfree_segment

from oracles import mobius_brute

CHI15 = build_real_character(15)
RULES = {
    "liouville": MultiplicativeRule(base=-1),
    "mu": MultiplicativeRule(base=-1, k_truncation=2),
    "mu3": MultiplicativeRule(base=-1, k_truncation=3),
    # chi_15 completed at 3 and 5 (period 50625), flipped at 7 and 11, 3-free
    "chi15": modified_character(ModificationPlan(character=CHI15, flipped_primes=(7, 11))).truncated(3),
    "one": one_rule(),
}
# 1000 is a multiple neither of 30030 (the Liouville wheel) nor of any period
SEGMENT_SIZES = [2**10, 1000, 2**16, 2**20]


def limit_for(segment_size):
    """Three full windows and a short one."""
    return 3 * segment_size + 7


@pytest.fixture
def free_list(monkeypatch):
    """An empty free list for the test, so only its own workspaces exist."""
    monkeypatch.setattr(workspace, "_FREE", [])
    return workspace._FREE


def dirty(fill: int = 0xA5) -> None:
    """Overwrite every byte of every idle workspace buffer."""
    for ws in workspace._FREE:
        for buf in ws.buffers.values():
            buf.fill(fill)


@lru_cache(maxsize=None)
def reference_series(name, limit):
    """Checkpoints and running max |M| from one fresh table of the values."""
    prefix = np.cumsum(RULES[name].segment_values(1, limit), dtype=np.int64)
    running = np.maximum.accumulate(np.abs(prefix))
    schedule = summatory.checkpoint_schedule(limit)
    return ([(x, int(prefix[x - 1])) for x in schedule],
            [(x, int(running[x - 1])) for x in schedule])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("segment_size", SEGMENT_SIZES)
@pytest.mark.parametrize("name", list(RULES))
def test_dirty_workspaces_leave_series_unchanged(name, segment_size, threads, free_list):
    rule, limit = RULES[name], limit_for(segment_size)
    fresh = direct_summatory(rule, limit, segment_size=segment_size, threads=threads)
    assert free_list and all(ws.buffers for ws in free_list)
    dirty()
    reused = direct_summatory(rule, limit, segment_size=segment_size, threads=threads)
    assert reused == fresh
    assert (reused.checkpoints, reused.running_abs_max) == reference_series(name, limit)


@pytest.mark.parametrize("segment_size", SEGMENT_SIZES)
def test_dirty_workspace_leaves_mertens_unchanged(segment_size, free_list):
    limit = limit_for(segment_size)
    fresh = mertens(limit, segment_size=segment_size)
    assert len(free_list) == 1 and free_list[0].buffers
    dirty()
    assert mertens(limit, segment_size=segment_size) == fresh
    assert fresh == int(np.sum(sieve_mobius_segment(1, limit).values, dtype=np.int64))


# mertens adds a window as 64 int8 rows and a tail of fewer than 64 values;
# none of these lengths is a multiple of 64, and the first two have no rows
@pytest.mark.parametrize("segment_size", [1, 63, 65, 1000, 2**16 + 1])
def test_dirty_workspace_mertens_at_any_window_length(segment_size, free_list):
    limit = limit_for(segment_size) + 1000
    mertens(limit, segment_size=segment_size)
    dirty()
    total = mertens(limit, segment_size=segment_size)
    assert total == mertens_recursive(limit)
    assert total == int(np.sum(sieve_mobius_segment(1, limit).values, dtype=np.int64))


def test_dirty_workspace_small_windows_match_brute_force(free_list):
    # windows of 1..30 values, each past a dirty buffer sized for 2^16
    direct_summatory(RULES["mu"], 2**16, segment_size=2**16)
    for size in range(1, 31):
        dirty()
        series = direct_summatory(RULES["mu"], 300, schedule=range(1, 301), segment_size=size)
        expect = np.cumsum([mobius_brute(n) for n in range(1, 301)]).tolist()
        assert [m for _, m in series.checkpoints] == expect


def producers(lo, hi):
    """Every public array producer over [lo, hi], by name."""
    primes = sieve_primes(int(hi**0.5) + 1)
    block = period_block(CHI15.period_values)
    out = {f"liouville k={k}": liouville_kfree_segment(lo, hi, k, primes) for k in (None, 2, 3)}
    out["mobius table"] = sieve_mobius_segment(lo, hi, primes).values
    out["kfree table"] = sieve_kfree_segment(lo, hi, 2, primes).values
    for name, rule in RULES.items():
        out[f"{name} segment"] = rule.segment_values(lo, hi, primes)
        out[f"{name} table"] = rule.values(lo, hi, primes).values
    out["chi values"] = CHI15.values(lo, hi)
    out["chi table"] = character_table(CHI15, lo, hi).values
    out["tiled window"] = tiled_window(block, 15, lo, hi)
    return out


def shared(arrays, buffers):
    return [name for name, a in arrays.items() if any(np.shares_memory(a, b) for b in buffers)]


def test_producers_inside_a_window_return_fresh_arrays(free_list):
    direct_summatory(RULES["mu"], 2**16, segment_size=2**16)  # grow the buffers first
    with workspace.borrowed() as ws:
        arrays = producers(10**6, 10**6 + 2**16 - 1)
        assert shared(arrays, ws.buffers.values()) == []
    seen = []

    def window(lo, hi):
        arrays = producers(lo, hi)
        seen.append(shared(arrays, workspace._BOUND.workspace.buffers.values()))
        return arrays["mu segment"]

    stream_summatory(window, 3 * 2**12, segment_size=2**12, threads=2)
    assert seen == [[]] * 3


def test_producers_outside_a_window_return_fresh_arrays(free_list):
    direct_summatory(RULES["liouville"], 2**17, segment_size=2**16, threads=2)
    arrays = producers(1, 2**16)
    assert shared(arrays, [b for w in workspace._FREE for b in w.buffers.values()]) == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", ["mu", "chi15"])
def test_second_stream_allocates_no_buffer(name, threads, free_list):
    # 31 windows of 2^16, all run on the calling thread with one workspace
    run = lambda: direct_summatory(RULES[name], 2 * 10**6, segment_size=2**16, threads=threads)
    first = run()
    allocations = sum(ws.allocations for ws in free_list)
    assert 0 < allocations and len(free_list) == 1
    assert run() == first
    assert sum(ws.allocations for ws in free_list) == allocations
    assert len(free_list) == 1


def test_streams_on_concurrent_threads_never_share_a_workspace(free_list):
    # streams run on the caller's own threads, with a short switch interval:
    # a workspace bound to two windows at once would corrupt one of their sums
    limit = 3 * 10**5
    expect = reference_series("chi15", limit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = [pool.submit(direct_summatory, RULES["chi15"], limit, segment_size=2**12)
                    for _ in range(8)]
            series = [run.result(timeout=300) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert all((s.checkpoints, s.running_abs_max) == expect for s in series)
    assert 1 <= len(free_list) <= 8 and len(set(map(id, free_list))) == len(free_list)


def test_borrowing_nests_and_restores_the_binding(free_list):
    with workspace.borrowed() as outer:
        a = workspace.scratch("x", 8, np.int64)
        with workspace.borrowed() as inner:
            assert inner is not outer
            assert not np.shares_memory(workspace.scratch("x", 8, np.int64), a)
        assert np.shares_memory(workspace.scratch("x", 8, np.int64), a)
    assert sorted(map(id, free_list)) == sorted((id(outer), id(inner)))
    # no workspace is bound here: scratch is fresh
    assert not np.shares_memory(workspace.scratch("x", 8, np.int64), a)


@pytest.mark.parametrize("k", [None, 2, 3])
def test_kernel_window_allocates_no_new_buffer(k, free_list):
    # the kernel's sign flag lives in its output and its sums in TABLE, so a
    # second window takes no buffer and no window-sized temporary
    lo, hi = 10**9, 10**9 + 2**20 - 1
    primes = sieve_primes(isqrt(hi))
    window = lambda: liouville_kfree_segment(
        lo, hi, k, primes, out=workspace.scratch(workspace.VALUES, hi - lo + 1, np.int8))
    with workspace.borrowed() as ws:
        first = window().copy()
        allocations = ws.allocations
        tracemalloc.start()
        try:
            second = window()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(ws.buffers) == {workspace.TABLE, workspace.VALUES}
        assert ws.allocations == allocations
    assert peak < (hi - lo + 1) // 4
    assert np.array_equal(second, first)
    assert np.array_equal(first, liouville_kfree_segment(lo, hi, k, primes))


def test_workspace_grows_only_when_too_small():
    ws = workspace.Workspace()
    a = ws.array("t", (4, 8), np.int16)
    assert a.shape == (4, 8) and a.dtype == np.int16 and ws.allocations == 1
    b = ws.array("t", 16, np.int32)  # 64 bytes, as before
    assert np.shares_memory(a, b) and ws.allocations == 1
    ws.array("t", 9, np.int64)
    assert ws.allocations == 2


@pytest.mark.parametrize("out, message", [
    (np.zeros(10, dtype=np.int16), "int8 array of shape \\(11,\\), got int16\\(10,\\)"),
    (np.zeros(12, dtype=np.int8), "got int8\\(12,\\)"),
    (np.zeros((11, 1), dtype=np.int8), "got int8\\(11, 1\\)"),
])
def test_out_must_match_the_window(out, message):
    for call in (
        lambda: liouville_kfree_segment(5, 15, 2, out=out),
        lambda: RULES["chi15"].segment_values(5, 15, out=out),
        lambda: character_rule(CHI15).segment_values(5, 15, out=out),
    ):
        with pytest.raises(ShapeError, match=message):
            call()


def test_out_receives_the_values():
    out = np.full(1001, 7, dtype=np.int8)
    for rule in RULES.values():
        assert rule.segment_values(10**6, 10**6 + 1000, out=out) is out
        assert np.array_equal(out, rule.segment_values(10**6, 10**6 + 1000))
    read_only = np.zeros(1001, dtype=np.int8)
    read_only.setflags(write=False)
    with pytest.raises(ShapeError, match="writable"):
        liouville_kfree_segment(1, 1001, out=read_only)


CHI3 = build_real_character(3)


@pytest.mark.parametrize("make", [
    lambda: liouville_kfree_segment(1, 10**12, 2),
    lambda: sieve_mobius_segment(1, 10**12),
    lambda: sieve_kfree_segment(1, 10**12, 2),
    lambda: character_table(CHI3, 1, 10**12),
    lambda: character_rule(CHI3, 2).values(1, 10**12),
    lambda: mobius_rule().values(1, 10**12),
    lambda: deviation_factor(modified_character(ModificationPlan(character=CHI3, flipped_primes=(7,))),
                             CHI3, 10**12),
    lambda: workspace.Workspace().array(workspace.VALUES, 2**31 + 1, np.int8),
], ids=["liouville", "mobius table", "kfree table", "character table", "character rule",
        "mobius rule", "deviation factor", "workspace buffer"])
def test_dense_tables_past_the_byte_budget_raise_before_allocating(make):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"budget is {workspace.MAX_SPF_BYTES}$"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
