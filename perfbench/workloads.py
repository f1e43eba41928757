"""The benchmark workloads: seeded inputs, timed calls, and their checks.

Four parts (stream, mobius, dual, report) each time three paths per
iteration and check every result by a second exact route outside the
timed region.  The two workloads run two parts each: `kernels` (stream,
mobius) has paths path1..path6 in that order, and so does `oracles`
(dual, report).  The seed picks the inputs but keeps their cost fixed:
each x is drawn uniformly from [0.95 X, X], and flipped primes are 4
primes from (100, 200], whose peel passes cost the same to within a few
per cent whichever are drawn.

Each path is a Timed: its metric counts the process CPU seconds of a call,
or the wall seconds on the threads=2 path, whose point is the wall time a
second thread saves; run.py scales them by the path's reference.

Sizes are smaller than the paper-scale runs (stream 10^8, Mertens 10^9) so
that each path call takes about 0.3-1 s and a 55 s run averages about 17
or more calls per path.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

import exact

FLIP_COUNT = 4
FLIP_RANGE = (100, 200)


class Timed(NamedTuple):
    """One timed path of a part."""

    name: str
    unit: str
    what: str
    clock: str = "cpu"  # or "wall"
    reference: str = "both"  # or "python", for interpreter-bound paths


class Recorder:
    """Timed samples per path, (x, wall s, process CPU s) per call, plus
    the pass/fail tally of the checks."""

    def __init__(self, error_type: type[Exception], paths: int):
        self.error_type = error_type
        self.samples: list[list[tuple[int, float, float]]] = [[] for _ in range(paths)]
        self.attempted = 0
        self.failed = 0

    def call(self, path: int, x: int, fn, *args, **kwargs):
        """Run fn timed; a package error is a failed check and yields None."""
        t0, c0 = perf_counter(), process_time()
        try:
            out = fn(*args, **kwargs)
        except self.error_type as e:
            out = None
            self.attempted += 1
            self.failed += 1
            print(f"FAIL path{path + 1}: {type(e).__name__}: {e}", file=sys.stderr)
        self.samples[path].append((x, perf_counter() - t0, process_time() - c0))
        return out

    def check(self, what: str, ok, *results) -> None:
        """Count one check; skipped when a call it depends on already failed."""
        if any(r is None for r in results):
            return
        self.attempted += 1
        if not ok():
            self.failed += 1
            print(f"FAIL check: {what}", file=sys.stderr)

    def wall(self) -> float:
        return sum(s for path in self.samples for _, s, _ in path)


class Shifted:
    """A Recorder seen by one part of a workload: its path i is path offset + i."""

    def __init__(self, rec: Recorder, offset: int):
        self.rec, self.offset = rec, offset

    def call(self, path: int, x: int, fn, *args, **kwargs):
        return self.rec.call(self.offset + path, x, fn, *args, **kwargs)

    def check(self, what: str, ok, *results) -> None:
        self.rec.check(what, ok, *results)


def draw(rng, top: int) -> int:
    return rng.randint(math.ceil(0.95 * top), top)


def draw_flips(api, rng, modulus: int) -> tuple[int, ...]:
    lo, hi = FLIP_RANGE
    pool = [int(p) for p in api.sieve_primes(hi) if p > lo and modulus % p]
    return tuple(sorted(rng.sample(pool, FLIP_COUNT)))


class Stream:
    """direct_summatory with the default checkpoint schedule."""

    sizes = {"full": {"X": 2 * 10**7}, "smoke": {"X": 2 * 10**5}}
    paths = (
        Timed("stream_n_per_s", "n/s", "f1 = mu_2^2 chi_3, threads=1"),
        Timed("stream_mod_n_per_s", "n/s", "f2 = mu_3-free g, g = chi_15 completed + 4 flips, threads=1"),
        Timed("stream_t2_n_per_s", "n/s", "f1, threads=2", clock="wall"),
    )

    def __init__(self, api, rng, size_key: str, work_dir: Path):
        size = self.sizes[size_key]
        self.api = api
        self.X = size["X"]
        chi15 = api.build_real_character(15)
        plan = api.ModificationPlan(character=chi15, flipped_primes=draw_flips(api, rng, 15))
        self.f1 = api.character_rule(api.build_real_character(3), k=2)
        self.f2 = api.modified_character(plan).truncated(3)
        self.exact1 = exact.KfreeSum(self.f1, 2)
        self.exact2 = exact.KfreeSum(self.f2, 3)

    def iteration(self, rng, rec: Shifted) -> None:
        api, x = self.api, draw(rng, self.X)
        s1 = rec.call(0, x, api.direct_summatory, self.f1, x)
        s2 = rec.call(1, x, api.direct_summatory, self.f2, x)
        s3 = rec.call(2, x, api.direct_summatory, self.f1, x, threads=2)
        for label, s, ex in (("f1", s1, self.exact1), ("f2", s2, self.exact2)):
            rec.check(f"{label} checkpoints at x={x} match the sublinear route",
                      lambda: s.final[0] == x and _sums(s) == ex.values(_xs(s)), s)
        rec.check(f"f1 series at x={x} bit-identical for threads=1 and 2",
                  lambda: s1 == s3, s1, s3)


class Mobius:
    """The Mertens function through its three code paths.

    mertens_recursive is ~20x cheaper than the streams at the same x, so
    each iteration times it at RECURSIVE_CALLS points (x and further draws
    below x, each a separate call) and the rule-path stream also
    checkpoints those points; every recursive value is checked against it.
    """

    sizes = {"full": {"X": 2 * 10**7}, "smoke": {"X": 2 * 10**5}}
    paths = (
        Timed("mertens_s", "s", "mertens (segmented Mobius sieve)"),
        Timed("mertens_rule_s", "s", "direct_summatory(mobius_rule()) (rule path)"),
        Timed("mertens_recursive_s", "s", "mertens_recursive, one call", reference="python"),
    )
    RECURSIVE_CALLS = 5

    def __init__(self, api, rng, size_key: str, work_dir: Path):
        size = self.sizes[size_key]
        self.api = api
        self.X = size["X"]
        self.mu = api.mobius_rule()

    def iteration(self, rng, rec: Shifted) -> None:
        api, x = self.api, draw(rng, self.X)
        points = [x] + [rng.randint(math.ceil(0.95 * self.X), x) for _ in range(self.RECURSIVE_CALLS - 1)]
        schedule = sorted(set(api.checkpoint_schedule(x)) | set(points))
        m1 = rec.call(0, x, api.mertens, x)
        s2 = rec.call(1, x, api.direct_summatory, self.mu, x, schedule=schedule)
        rec.check(f"sieve and rule-path Mertens agree at x={x}", lambda: s2.final == (x, m1), m1, s2)
        for y in points:
            m3 = rec.call(2, y, api.mertens_recursive, y)
            rec.check(f"recursive Mertens at {y} matches the rule path",
                      lambda: dict(s2.checkpoints)[y] == m3, s2, m3)


class Dual:
    """compare_methods under two splits, and the Dirichlet algebra."""

    sizes = {
        "full": {"X": 5 * 10**6, "X_skew": 3 * 10**6, "N": 10**5},
        "smoke": {"X": 10**5, "X_skew": 3 * 10**4, "N": 2 * 10**3},
    }
    paths = (
        Timed("compare_s", "s", "compare_methods, theorem2 split, f1 (k=2) then f2 (k=3)"),
        Timed("compare_skew_s", "s", "compare_methods, f1, split U=10, V=x/10"),
        Timed("algebra_s", "s", "dirichlet_inverse, dirichlet_convolve, deviation_factor of g", reference="python"),
    )

    def __init__(self, api, rng, size_key: str, work_dir: Path):
        size = self.sizes[size_key]
        self.api = api
        self.size = size
        self.chi15 = api.build_real_character(15)
        plan = api.ModificationPlan(character=self.chi15, flipped_primes=draw_flips(api, rng, 15))
        self.g = api.modified_character(plan)
        self.f1 = api.character_rule(api.build_real_character(3), k=2)
        self.f2 = self.g.truncated(3)
        self.exact1 = exact.KfreeSum(self.f1, 2)
        self.exact2 = exact.KfreeSum(self.f2, 3)

    def _theorem2(self, x: int):
        api = self.api
        return (
            api.compare_methods(self.f1, 2, x, api.optimal_split(x, 2)),
            api.compare_methods(self.f2, 3, x, api.optimal_split(x, 3)),
        )

    def _algebra(self, a):
        api = self.api
        inverse = api.dirichlet_inverse(a).as_table()
        product = api.dirichlet_convolve(a, inverse)
        return product, api.deviation_factor(self.g, self.chi15, a.hi)

    def iteration(self, rng, rec: Shifted) -> None:
        api = self.api
        x = draw(rng, self.size["X"])
        pair = rec.call(0, x, self._theorem2, x)
        rec.check(f"theorem2 direct values at x={x} match the sublinear route",
                  lambda: [r.direct_value for r in pair] == [self.exact1.values([x])[0], self.exact2.values([x])[0]],
                  pair)

        xs = draw(rng, self.size["X_skew"])
        split = api.explicit_split(xs, 10, xs / 10)
        skew = rec.call(1, xs, api.compare_methods, self.f1, 2, xs, split)
        rec.check(f"skewed-split value at x={xs} matches the sublinear route",
                  lambda: skew.direct_value == self.exact1.values([xs])[0], skew)

        n = draw(rng, self.size["N"])
        a = self.g.values(1, n)
        alg = rec.call(2, n, self._algebra, a)
        rec.check(f"a * a^-1 is the unit on [1, {n}]",
                  lambda: alg[0].values[1] == 1 and not alg[0].values[2:].any(), alg)
        rec.check(f"deviation factor on [1, {n}] matches its prime-power law",
                  lambda: (alg[1].values == exact.deviation_table(self.g, self.chi15, n)).all(), alg)


class Report:
    """A full run_experiment bundle, greedy_plan, and pretentious_distance."""

    sizes = {
        "full": {"X": 10**7, "X_plan": 2 * 10**6, "X_dist": 5 * 10**6},
        "smoke": {"X": 10**5, "X_plan": 3 * 10**4, "X_dist": 10**5},
    }
    paths = (
        Timed("bundle_s", "s", "run_experiment: q=3 plan with 4 flips, budget, power + theorem1 envelopes"),
        Timed("plan_s", "s", "greedy_plan(chi_3, k=2 budget)", reference="python"),
        Timed("distance_s", "s", "pretentious_distance(g, chi_3)", reference="python"),
    )

    def __init__(self, api, rng, size_key: str, work_dir: Path):
        size = self.sizes[size_key]
        self.api = api
        self.size = size
        self.chi3 = api.build_real_character(3)
        flips = draw_flips(api, rng, 3)
        self.budget = api.DeviationBudget(big_c=2.0, small_c=1.0, k=2, x0=10)
        # the bundle's config is fixed for the run, so its bytes must repeat
        self.x_bundle = draw(rng, size["X"])
        self.config = api.parse_config(_config_text(self.x_bundle, flips))
        self.g = api.modified_character(self.config.plan)
        self.chi_rule = api.character_rule(self.chi3)
        self.final_m = exact.KfreeSum(self.g.truncated(2), 2).values([self.x_bundle])[0]
        self.work_dir = work_dir
        self.bundle_bytes: dict[str, bytes] | None = None
        self.runs = 0

    def iteration(self, rng, rec: Shifted) -> None:
        api, x = self.api, self.x_bundle
        out_dir = self.work_dir / f"bundle-{self.runs}"
        self.runs += 1
        summary = rec.call(0, x, api.run_experiment, self.config, out_dir)
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if summary else None
        shutil.rmtree(out_dir, ignore_errors=True)
        if self.bundle_bytes is None and files:
            self.bundle_bytes = files
        rec.check(f"bundle final M({x}) matches the sublinear route",
                  lambda: summary["final"] == {"x": x, "M": self.final_m}, summary)
        rec.check("bundle bytes identical across iterations",
                  lambda: files == self.bundle_bytes, files)

        xp = draw(rng, self.size["X_plan"])
        plan = rec.call(1, xp, api.greedy_plan, self.chi3, self.budget, xp)
        rec.check(f"greedy plan to {xp} flips primes and passes the budget verifier",
                  lambda: len(plan.flipped_primes) > 0 and api.verify_deviation_budget(
                      api.modified_character(plan), self.chi3, self.budget, xp).passed, plan)

        xd = draw(rng, self.size["X_dist"])
        d = rec.call(2, xd, api.pretentious_distance, self.g, self.chi_rule, xd)
        rec.check(f"distance to {xd} matches the sum over deviating primes",
                  lambda: d == exact.distance(self.g, self.chi_rule, xd), d)


def _config_text(x: int, flips: tuple[int, ...]) -> str:
    return json.dumps({
        "modulus": 3, "k": 2, "X": x,
        "plan": {"modulus": 3, "flipped_primes": list(flips), "unit_on_q_divisors": True},
        "budget": {"C": 2.0, "c": 1.0, "x0": 10},
        "envelopes": [{"kind": "power", "alpha": 0.25}, {"kind": "theorem1", "k": 2, "lambda": 1.0}],
        "split": "theorem2",
    })


def _xs(series) -> list[int]:
    return [x for x, _ in series.checkpoints]


def _sums(series) -> list[int]:
    return [m for _, m in series.checkpoints]


class Workload:
    """Parts run back to back in each iteration; their paths are numbered
    in order (path1..path3 of the first part, path4..path6 of the second)."""

    def __init__(self, parts, api, rng, size_key: str, work_dir: Path):
        self.parts = [part(api, rng, size_key, work_dir) for part in parts]
        self.paths = tuple(p for part in parts for p in part.paths)

    def iteration(self, rng, rec: Recorder) -> None:
        offset = 0
        for part in self.parts:
            part.iteration(rng, Shifted(rec, offset))
            offset += len(part.paths)


# Two workloads of two parts each, so that a run can last about a minute
# within the time budget: host contention comes in phases of 5-30 s, and
# half-minute runs of four separate workloads spread beyond the bound on
# the pure-Python paths.
WORKLOADS = {"kernels": (Stream, Mobius), "oracles": (Dual, Report)}
