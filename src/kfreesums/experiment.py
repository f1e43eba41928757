"""Config-driven experiment bundles and the dual-path method comparison.

A run config is JSON with the shape

    {
      "modulus": 3, "k": 2, "X": 1000000,
      "plan": {"modulus": 3, "flipped_primes": [], "unit_on_q_divisors": true},
      "budget": {"C": 2.0, "c": 1.0, "x0": 10},
      "envelopes": [{"kind": "power", "alpha": 0.25}],
      "split": "theorem2"            // or {"U": ..., "V": ...}
    }

`plan` selects the completely multiplicative +-1 modification g (absent:
the bare character, vanishing on the modulus, is restricted instead).
Identical configs produce byte-identical bundles: no timestamps or wall
times are written to any artifact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    DEFAULT_X_MIN,
    EnvelopeSpec,
    envelope_ratio,
    fit_exponent,
)
from .characters import build_real_character
from .constructions import (
    BudgetReport,
    DeviationBudget,
    ModificationPlan,
    modified_character,
    verify_deviation_budget,
)
from .errors import ConfigError, FitError, MethodMismatchError, RangeError
from .rules import MultiplicativeRule, character_rule
from .summatory import (
    HyperbolaSplit,
    checkpoint_schedule,
    direct_summatory,
    explicit_split,
    kfree_hyperbola_sum,
    optimal_split,
)

SUMMARY_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class ExperimentConfig:
    modulus: int
    k: int
    limit: int
    plan: ModificationPlan | None
    budget: DeviationBudget | None
    envelopes: list[EnvelopeSpec]
    split: str | tuple[float, float]
    schedule_ratio: float = 1.05

    @property
    def raw(self) -> dict:
        out = {
            "modulus": self.modulus,
            "k": self.k,
            "X": self.limit,
            "envelopes": [
                {k2: v for k2, v in {
                    "kind": e.kind, "alpha": e.alpha, "k": e.k,
                    "lambda": e.lam, "c": e.c, "scale": e.scale,
                }.items() if v is not None}
                for e in self.envelopes
            ],
            "split": self.split if isinstance(self.split, str)
            else {"U": self.split[0], "V": self.split[1]},
        }
        if self.plan is not None:
            out["plan"] = json.loads(self.plan.to_json())
        if self.budget is not None:
            out["budget"] = {"C": self.budget.big_c, "c": self.budget.small_c,
                             "x0": self.budget.x0}
        return out


def _fail(path: str, msg: str) -> ConfigError:
    return ConfigError(f"config {path}: {msg}")


def _require_int(data: dict, key: str, minimum: int) -> int:
    if key not in data:
        raise _fail(key, "missing required key")
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or int(v) != v:
        raise _fail(key, f"expected an integer, got {v!r}")
    v = int(v)
    if v < minimum:
        raise _fail(key, f"must be >= {minimum}, got {v}")
    return v


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, with line-level diagnostics."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"modulus", "k", "X", "plan", "budget", "envelopes", "split", "schedule_ratio"}
    for key in data:
        if key not in known:
            raise _fail(key, "unknown key")

    modulus = _require_int(data, "modulus", 3)
    k = _require_int(data, "k", 2)
    limit = _require_int(data, "X", 1)
    chi = build_real_character(modulus)

    plan = None
    if data.get("plan") is not None:
        pd = data["plan"]
        if not isinstance(pd, dict):
            raise _fail("plan", "must be an object")
        if "modulus" in pd and int(pd["modulus"]) != modulus:
            raise _fail("plan.modulus", f"disagrees with top-level modulus {modulus}")
        plan = ModificationPlan(
            character=chi,
            flipped_primes=tuple(pd.get("flipped_primes", ())),
            unit_on_q_divisors=bool(pd.get("unit_on_q_divisors", True)),
        )

    budget = None
    if data.get("budget") is not None:
        bd = data["budget"]
        if not isinstance(bd, dict):
            raise _fail("budget", "must be an object")
        budget = DeviationBudget(
            big_c=float(bd.get("C", 2.0)),
            small_c=float(bd.get("c", 1.0)),
            k=k,
            x0=int(bd.get("x0", 10)),
        )
    elif plan is not None:
        budget = DeviationBudget(k=k)

    envelopes = []
    for i, ed in enumerate(data.get("envelopes", [{"kind": "power", "alpha": 0.25}])):
        if not isinstance(ed, dict) or "kind" not in ed:
            raise _fail(f"envelopes[{i}]", "each envelope needs a 'kind'")
        try:
            envelopes.append(
                EnvelopeSpec(
                    kind=ed["kind"],
                    alpha=ed.get("alpha"),
                    k=ed.get("k"),
                    lam=ed.get("lambda"),
                    c=ed.get("c"),
                    scale=float(ed.get("scale", 1.0)),
                )
            )
        except ConfigError as e:
            raise _fail(f"envelopes[{i}]", str(e)) from None

    split = data.get("split", "theorem2")
    if isinstance(split, str):
        if split != "theorem2":
            raise _fail("split", f"must be \"theorem2\" or an object {{U, V}}, got {split!r}")
    elif isinstance(split, dict):
        if set(split) != {"U", "V"}:
            raise _fail("split", "object form needs exactly the keys U and V")
        split = (float(split["U"]), float(split["V"]))
    else:
        raise _fail("split", "must be \"theorem2\" or an object {U, V}")

    ratio = float(data.get("schedule_ratio", 1.05))
    if ratio <= 1.0:
        raise _fail("schedule_ratio", "must exceed 1")

    return ExperimentConfig(
        modulus=modulus, k=k, limit=limit, plan=plan, budget=budget,
        envelopes=envelopes, split=split, schedule_ratio=ratio,
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def config_rules(cfg: ExperimentConfig):
    """(f, g, chi): the summed function f = (k-free) * g and its base g."""
    chi = build_real_character(cfg.modulus)
    if cfg.plan is not None:
        g = modified_character(cfg.plan)
    else:
        g = character_rule(chi)
    return g.truncated(cfg.k), g, chi


def resolve_split(cfg: ExperimentConfig, x: int) -> HyperbolaSplit:
    if isinstance(cfg.split, str):
        return optimal_split(x, cfg.k)
    u, v = cfg.split
    return explicit_split(x, u, v)


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Produce the full report bundle for a config; returns the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    from .reporting import write_csv, write_json

    f, g, chi = config_rules(cfg)
    schedule = checkpoint_schedule(cfg.limit, ratio=cfg.schedule_ratio)
    series = direct_summatory(f, cfg.limit, schedule=schedule, threads=threads)
    series.to_csv(out / "series.csv")

    summary: dict = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config": cfg.raw,
        "function": f.label,
        "final": {"x": series.final[0], "M": series.final[1]},
        "max_abs": int(series.abs_max[-1]),
    }

    budget_report: BudgetReport | None = None
    if cfg.budget is not None and cfg.limit >= cfg.budget.x0:
        budget_report = verify_deviation_budget(g, chi, cfg.budget, cfg.limit, schedule)
        budget_report.to_csv(out / "budget.csv")
        summary["budget"] = {
            "passed": budget_report.passed,
            "first_violation": (
                None
                if budget_report.first_violation is None
                else {
                    "x": budget_report.first_violation[0],
                    "S": budget_report.first_violation[1],
                    "budget": budget_report.first_violation[2],
                }
            ),
        }

    env_rows = []
    env_summaries = []
    for env in cfg.envelopes:
        ratio, at = envelope_ratio(series, env, x_min=min(DEFAULT_X_MIN, cfg.limit))
        env_rows.append((env.kind, env.describe(), ratio, at))
        env_summaries.append(
            {"kind": env.kind, "curve": env.describe(), "max_ratio": ratio, "arg_max": at}
        )
    write_csv(out / "envelopes.csv", ["kind", "curve", "max_ratio", "arg_max"], env_rows)
    summary["envelopes"] = env_summaries

    fit_x_min = DEFAULT_X_MIN if cfg.limit >= 10 * DEFAULT_X_MIN else int(series.xs[0])
    try:
        fit = fit_exponent(series, x_min=fit_x_min)
        fit_payload = {
            "slope": fit.slope, "intercept": fit.intercept,
            "x_min": fit.x_min, "residual": fit.residual, "points": fit.points,
        }
    except FitError as e:
        fit_payload = {"error": str(e)}
    write_json(out / "fit.json", fit_payload)
    summary["fit"] = fit_payload

    split = resolve_split(cfg, cfg.limit)
    summary["split"] = {
        "u_floor": split.u_floor, "v_floor": split.v_floor, "x": split.x,
    }
    write_json(out / "summary.json", summary)
    return summary


@dataclass(frozen=True)
class CompareReport:
    x: int
    direct_value: int
    hyperbola_value: int
    direct_seconds: float
    hyperbola_seconds: float


def compare_methods(
    f: MultiplicativeRule, k: int, x: int, split: HyperbolaSplit, threads: int = 1
) -> CompareReport:
    """Cross-validate the streamed sum of f against the hyperbola identity.

    f must be the k-free restriction of its completely multiplicative base
    g; the hyperbola side pairs g with the k-th-power factor h linking
    them; split must be a split of x.  Disagreement raises
    MethodMismatchError: it is a correctness bug, not a report entry.
    """
    if f.k_truncation != k:
        raise ConfigError(f"rule truncation {f.k_truncation} does not match k={k}")
    if split.x != x:
        raise RangeError(f"split is for x={split.x}, not x={x}")

    t0 = time.perf_counter()
    direct = direct_summatory(f, x, schedule=[x], threads=threads).final[1]
    t1 = time.perf_counter()
    hyper = kfree_hyperbola_sum(f.without_truncation(), k, split, threads=threads)
    t2 = time.perf_counter()

    if hyper != direct:
        raise MethodMismatchError(
            f"hyperbola {hyper} != direct {direct} for {f.label} at x={x}: correctness bug"
        )
    return CompareReport(
        x=x, direct_value=direct, hyperbola_value=hyper,
        direct_seconds=t1 - t0, hyperbola_seconds=t2 - t1,
    )
