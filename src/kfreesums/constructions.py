"""Modified characters, deviation budgets, and the pretentious distance.

The central object is a completely multiplicative g: N -> {-1, +1} built
from a real non-principal character chi by (a) assigning +-1 at the
primes dividing the modulus, where chi vanishes, and (b) optionally
flipping the sign at finitely many further primes.  The deviation sum

    S(x) = sum_{p<=x} |1 - g(p) chi(p)|

then counts 2 per flipped prime and 1 per modulus prime, and the
verifier checks S(x) against a concrete budget C * x^(1/k) *
exp(-c sqrt(log x)) over a finite window.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .characters import RealCharacter
from .errors import PlanError, RangeError
from .rules import MultiplicativeRule
from .sieve import as_int, as_real, as_schedule, is_prime, sieve_primes
from .summatory import PartialSumSeries, checkpoint_schedule, direct_summatory


@dataclass(frozen=True)
class ModificationPlan:
    """Where a completely multiplicative g deviates from its base character.

    Attributes:
        character: The base chi (modulus q).
        flipped_primes: Sorted primes p, coprime to q, where g(p) = -chi(p).
        unit_on_q_divisors: Value of g at primes p | q: +1 when True (the
            bounded-growth completion), -1 when False.
    """

    character: RealCharacter
    flipped_primes: tuple[int, ...] = ()
    unit_on_q_divisors: bool = True

    def __post_init__(self) -> None:
        q = self.character.modulus
        flips = tuple(sorted({as_int(p, "flipped prime", PlanError) for p in self.flipped_primes}))
        object.__setattr__(self, "flipped_primes", flips)
        for p in flips:
            if q % p == 0:
                raise PlanError(f"flipped prime {p} divides the modulus {q}")
            if self.character.value(p) == 0:
                raise PlanError(f"chi({p}) = 0: cannot flip a vanishing prime")
            if not is_prime(p):
                raise PlanError(f"flip index {p} is not prime")

    def overrides(self) -> dict[int, int]:
        out = {p: (1 if self.unit_on_q_divisors else -1)
               for p in self.character.q_divisor_primes()}
        for p in self.flipped_primes:
            out[p] = -self.character.value(p)
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "modulus": self.character.modulus,
                "flipped_primes": list(self.flipped_primes),
                "unit_on_q_divisors": self.unit_on_q_divisors,
            },
            sort_keys=True,
        )


def completed_character(chi: RealCharacter) -> MultiplicativeRule:
    """g with g(n) = chi(n) for gcd(n, q) = 1 and g(p) = +1 for p | q.

    The completion is completely multiplicative with values +-1 at every
    prime, and its partial sums grow at most like a power of log x.
    """
    return modified_character(ModificationPlan(character=chi))


def modified_character(plan: ModificationPlan) -> MultiplicativeRule:
    """The completely multiplicative g encoded by a modification plan."""
    tag = "+".join(str(p) for p in plan.flipped_primes)
    label = f"g[{plan.character.label}" + (f";flip {tag}]" if tag else "]")
    return MultiplicativeRule(
        base=plan.character, overrides=plan.overrides(), label=label
    )


def deviation_sum(g: MultiplicativeRule, chi: RealCharacter, x: int) -> int:
    """S(x) = sum_{p<=x} |1 - g(p) chi(p)|, exactly.

    Every prime where g agrees with chi contributes 0, so only the rule's
    override primes and the modulus primes can contribute; the sum is
    evaluated from those finite sets without touching other primes.
    """
    x = as_int(x, "x")
    primes = set(g.overrides) | set(chi.q_divisor_primes())
    return sum(abs(1 - g.prime_value(p) * chi.value(p)) for p in primes if p <= x)


@dataclass(frozen=True)
class DeviationBudget:
    """Concrete budget C * x^(1/k) * exp(-c sqrt(log x)) with start point x0.

    C and c are read as finite positive floats, k and x0 as Python ints
    >= 2; RangeError names any other value.
    """

    big_c: float = 2.0
    small_c: float = 1.0
    k: int = 2
    x0: int = 10

    def __post_init__(self) -> None:
        big_c, small_c = as_real(self.big_c, "budget C"), as_real(self.small_c, "budget c")
        if big_c <= 0 or small_c <= 0:
            raise RangeError(f"budget constants must be positive: C={big_c}, c={small_c}")
        k = as_int(self.k, "budget exponent k", minimum=2)
        x0 = as_int(self.x0, "budget start x0", minimum=2)
        for name, value in zip(("big_c", "small_c", "k", "x0"), (big_c, small_c, k, x0)):
            object.__setattr__(self, name, value)

    def value(self, x: float) -> float:
        return self.big_c * x ** (1 / self.k) * math.exp(-self.small_c * math.sqrt(math.log(x)))

    def valley(self) -> float:
        """The unique interior minimum of the budget curve (x where the
        decreasing exp factor hands over to the increasing power);
        math.inf once exp((c k / 2)^2) passes the float range."""
        try:
            return math.exp((self.small_c * self.k / 2.0) ** 2)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class BudgetRow:
    x: int
    s: int
    budget: float
    passed: bool


@dataclass(frozen=True)
class BudgetReport:
    """Per-checkpoint budget comparison plus the overall verdict.

    `rows` follow the checkpoint schedule; `passed` additionally accounts
    for every point where S jumps (the plan's own primes) and the budget
    curve's interior minimum, so a violation between checkpoints cannot
    hide.
    """

    rows: list[BudgetRow]
    passed: bool
    first_violation: tuple[int, int, float] | None  # (x, S, budget)

    def to_csv(self, path) -> None:
        from .reporting import write_csv

        write_csv(
            path,
            ["x", "S", "budget", "pass"],
            [(r.x, r.s, r.budget, "true" if r.passed else "false") for r in self.rows],
        )


def _binding_points(lo: int, hi: int, budget: DeviationBudget, steps) -> list[int]:
    """Integer xs in [lo, hi] where S(x) <= budget(x) can be tightest.

    S is a step function jumping only at `steps` and the budget curve is
    unimodal (a single interior valley), so on each constant-S stretch the
    constraint binds at the stretch edges or at the valley; checking those
    points decides the whole window.  A valley outside [lo, hi], an
    infinite one included, adds nothing: its floor and ceiling are lo, hi
    or out of the window.
    """
    pts = {lo, hi}
    valley = budget.valley()
    if lo <= valley <= hi:
        pts.update((math.floor(valley), math.ceil(valley)))
    for s in steps:
        for x in (s, s - 1):
            if lo <= x <= hi:
                pts.add(x)
    return sorted(pts)


def verify_deviation_budget(
    g: MultiplicativeRule,
    chi: RealCharacter,
    budget: DeviationBudget,
    limit: int,
    schedule: list[int] | None = None,
) -> BudgetReport:
    """Check S(x) <= budget(x) for integer x in [x0, limit].

    Reports one row per schedule checkpoint; the verdict additionally
    scans every binding point (jump points of S, stretch edges, the budget
    valley), so a violation between checkpoints cannot hide.  Violations
    are report content, never exceptions.

    Raises:
        RangeError: limit or a schedule entry is not an integer, or limit < x0.
    """
    limit = as_int(limit, "limit", minimum=budget.x0)
    if schedule is None:
        schedule = checkpoint_schedule(limit)
    xs = as_schedule((budget.x0, *schedule), budget.x0, limit)

    steps = sorted(set(list(g.overrides) + chi.q_divisor_primes()))
    first_violation = None
    for x in _binding_points(budget.x0, limit, budget, steps):
        s = deviation_sum(g, chi, x)
        b = budget.value(x)
        if s > b:
            first_violation = (x, s, b)
            break

    rows = []
    for x in xs:
        s = deviation_sum(g, chi, x)
        b = budget.value(x)
        rows.append(BudgetRow(x=x, s=s, budget=b, passed=s <= b))
    return BudgetReport(rows=rows, passed=first_violation is None,
                        first_violation=first_violation)


# Relative margin by which the numpy budget estimate is inflated.  numpy's
# and libm's pow, exp, sqrt and log may each differ in the last few ulps.
# The exp factor scales its argument's relative error by c sqrt(log x),
# which stays below log(C/2) + log(x)/k < 750 wherever the budget reaches
# 2 (room for one flip), so the two budgets differ relatively by far less
# than 1e-12 there.
BUDGET_ESTIMATE_MARGIN = 1e-9

# Candidate primes are searched forward in blocks of this many bounds, so a
# plan with many flips costs O(#primes + #flips * block), not O(#primes)
# per flip.
GREEDY_SEARCH_BLOCK = 1024


def greedy_plan(chi: RealCharacter, budget: DeviationBudget, limit: int) -> ModificationPlan:
    """Flip primes in increasing order while the budget keeps holding.

    A candidate p is accepted only if, with it included, S(x) stays within
    the budget at every x in [max(p, x0), limit]; since S is constant there
    apart from modulus-prime steps below p, it suffices to compare against
    the budget at the binding points of that window (its edges, the steps
    and the interior valley).  The forced modulus-prime contribution is
    never removable, so the resulting plan passes the verifier exactly when
    that forced part does.

    The scan is whole-array work over the prime table.  With c flips so
    far, p passes when 2(c + 1) <= T(x) = floor(budget(x)) - Q(x) at every
    binding point x, Q(x) counting the modulus primes up to x.  Apart from
    lo = max(p, x0), the binding points are fixed: the limit, the valley's
    floor and ceiling and each step s and s - 1.  Each prime gets an upper
    bound on its window's least T: the suffix minimum of the exact scalar
    T over the fixed points >= lo, and at lo a numpy estimate of the budget
    inflated by BUDGET_ESTIMATE_MARGIN, which cannot fall below the scalar
    `budget.value(lo)`.  A prime whose bound is below 2(c + 1) therefore
    fails the scalar test and is skipped; the next prime whose bound
    reaches 2(c + 1) is confirmed by that scalar test, so every decision
    to accept a flip is the scalar one and the plan is the per-prime
    loop's.

    Raises:
        RangeError: limit is not an integer.
        CapacityError: the prime table to limit exceeds the sieve's byte budget.
    """
    limit = as_int(limit, "limit")
    primes = sieve_primes(limit)
    q_contrib = [p for p in chi.q_divisor_primes() if p <= limit]
    if budget.x0 > limit:
        return ModificationPlan(character=chi)

    def s_at(x: int, flips: int) -> int:
        return 2 * flips + bisect.bisect_right(q_contrib, x)

    def window_ok(lo: int, flips: int) -> bool:
        return all(
            s_at(x, flips) <= budget.value(x)
            for x in _binding_points(lo, limit, budget, q_contrib)
        )

    primes = primes[chi.modulus % primes != 0]
    lo = np.maximum(primes, budget.x0)
    # T at the fixed points from the scalar budget, and its suffix minimum
    fixed = np.array(_binding_points(budget.x0, limit, budget, q_contrib), dtype=np.int64)
    t_fixed = np.floor([budget.value(int(x)) for x in fixed]) - np.searchsorted(
        q_contrib, fixed, side="right")
    suffix_min = np.minimum.accumulate(t_fixed[::-1])[::-1]
    estimate = budget.big_c * lo ** (1 / budget.k) * np.exp(-budget.small_c * np.sqrt(np.log(lo)))
    bound = np.minimum(
        np.floor(estimate * (1 + BUDGET_ESTIMATE_MARGIN)) - np.searchsorted(q_contrib, lo, side="right"),
        suffix_min[np.searchsorted(fixed, lo, side="left")],
    )

    flips: list[int] = []
    i = 0
    while i < len(primes):
        hits = np.flatnonzero(bound[i : i + GREEDY_SEARCH_BLOCK] >= 2 * (len(flips) + 1))
        if not len(hits):
            i += GREEDY_SEARCH_BLOCK
            continue
        i += int(hits[0])
        if window_ok(int(lo[i]), len(flips) + 1):
            flips.append(int(primes[i]))
        i += 1
    return ModificationPlan(character=chi, flipped_primes=tuple(flips))


def _base_period(rule: MultiplicativeRule) -> tuple[np.ndarray, list[int]]:
    """The rule's base over one period (one value for a constant base) and
    the primes dividing that period."""
    if isinstance(rule.base, RealCharacter):
        return rule.base.period_values, rule.base.q_divisor_primes()
    return np.array([rule.base], dtype=np.int8), []


def pretentious_distance(f: MultiplicativeRule, g: MultiplicativeRule, x: int) -> float:
    """D(f, g; x) = (sum_{p<=x} (1 - f(p) g(p)) / p)^(1/2) for real-valued rules.

    Off the finite set T of both rules' override primes and the primes
    dividing Q = lcm of the two bases' periods, f(p) g(p) is the product of
    the two bases at p mod Q.  So the sum is one term per prime p <= x in
    T, plus 2/p for each prime p <= x in a residue class coprime to Q where
    that product is -1; those primes come from one sieve and a table
    lookup, and when no class deviates (two rules on one character) no
    sieve runs and any x answers at once.  Each term is corr / p correctly
    rounded to float64, in numpy as in Python's int division, and math.fsum
    is exact whatever the order of its terms, so D is the correctly rounded
    root of the exactly rounded sum of the per-prime terms; a rule pair
    agreeing at every prime gives exactly 0.0.

    Raises:
        RangeError: x is not an integer.
        CapacityError: a deviating class needs the prime table to x, and
            that exceeds the sieve's byte budget.
    """
    x = as_int(x, "x")
    if x < 2:
        return 0.0
    (f_base, f_primes), (g_base, g_primes) = _base_period(f), _base_period(g)
    q = math.lcm(len(f_base), len(g_base))
    special = set(f.overrides) | set(g.overrides) | set(f_primes) | set(g_primes)
    terms = [(1 - f.prime_value(p) * g.prime_value(p)) / p for p in sorted(special) if p <= x]
    product = np.tile(f_base, q // len(f_base)) * np.tile(g_base, q // len(g_base))
    deviating = (np.gcd(np.arange(q), q) == 1) & (product != 1)
    if deviating.any():
        primes = sieve_primes(x)
        primes = primes[deviating[primes % q] & ~np.isin(primes, list(special))]
        terms.extend((2.0 / primes).tolist())
    return math.sqrt(math.fsum(terms))


@dataclass(frozen=True)
class GrowthReport:
    """|M_g(x)| / (log x)^omega(q) along a checkpoint schedule."""

    label: str
    omega_q: int
    series: PartialSumSeries
    ratios: list[tuple[int, float]]
    max_ratio: float
    max_ratio_at: int
    limit_bound: float

    def to_csv(self, path) -> None:
        from .reporting import write_csv

        write_csv(path, ["x", "M", "ratio"], [
            (x, m, r)
            for (x, m), (_, r) in zip(self.series.checkpoints, self.ratios)
        ])


def growth_report(
    g: MultiplicativeRule,
    chi: RealCharacter,
    limit: int,
    schedule: list[int] | None = None,
    x_min: int = 10**3,
) -> GrowthReport:
    """Track the log-power growth of M_g for the completed character g.

    The reported ceiling is max_y |M_chi(y)| / (omega(q)! * prod_{p|q} log p),
    the limiting bound for the completion's normalised partial sums.
    """
    q_primes = chi.q_divisor_primes()
    omega = len(q_primes)
    series = direct_summatory(g, limit, schedule=schedule)
    ratios = []
    best, best_at = 0.0, 0
    for x, m in series.checkpoints:
        r = abs(m) / (math.log(x) ** omega) if x >= 2 else float(abs(m))
        ratios.append((x, r))
        if x >= x_min and r > best:
            best, best_at = r, x
    bound = chi.max_abs_partial_sum() / (
        math.factorial(omega) * math.prod(math.log(p) for p in q_primes)
    )
    return GrowthReport(
        label=g.label, omega_q=omega, series=series, ratios=ratios,
        max_ratio=best, max_ratio_at=best_at, limit_bound=bound,
    )
