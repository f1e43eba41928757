"""Config-driven experiment bundles and the dual-path method comparison.

A run config is JSON with the shape

    {
      "modulus": 3, "k": 2, "X": 1000000,
      "plan": {"modulus": 3, "flipped_primes": [], "unit_on_q_divisors": true},
      "budget": {"C": 2.0, "c": 1.0, "x0": 10},
      "envelopes": [{"kind": "power", "alpha": 0.25}],
      "split": "theorem2"            // or "sqrt", "U,V", {"U": ..., "V": ...}
    }

`plan` selects the completely multiplicative +-1 modification g (absent:
the bare character, vanishing on the modulus, is restricted instead).
Reals are read as exact Decimals (only budget and envelope constants
become floats), and each field's reader, shared with the CLI, raises
ConfigError naming the field and value it rejects.  Identical configs
produce byte-identical bundles: no timestamps or wall times are written
to any artifact.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from decimal import Decimal
from functools import partial
from pathlib import Path

from .analysis import (
    DEFAULT_X_MIN,
    EnvelopeSpec,
    envelope_ratio,
    fit_exponent,
)
from .characters import build_real_character
from .constructions import (
    DeviationBudget,
    ModificationPlan,
    modified_character,
    verify_deviation_budget,
)
from .errors import ConfigError, FitError, KfreesumsError, MethodMismatchError, RangeError
from .rules import MultiplicativeRule, character_rule
from .summatory import (
    HyperbolaSplit,
    checkpoint_schedule,
    direct_summatory,
    explicit_split,
    kfree_hyperbola_sum,
    optimal_split,
    sqrt_split,
)

SUMMARY_SCHEMA_VERSION = "1"
DEFAULT_SPLIT = "theorem2"
# config key -> attribute of the object built from the block
_ENVELOPE_KEYS = {"alpha": "alpha", "k": "k", "lambda": "lam", "c": "c", "scale": "scale"}
_BUDGET_KEYS = {"C": "big_c", "c": "small_c", "x0": "x0"}


@dataclass(frozen=True)
class ExperimentConfig:
    modulus: int
    k: int
    limit: int
    plan: ModificationPlan | None
    budget: DeviationBudget | None
    envelopes: list[EnvelopeSpec]
    split: str | tuple[Decimal, Decimal]
    schedule_ratio: float | None = None

    @property
    def raw(self) -> dict:
        out = {
            "modulus": self.modulus, "k": self.k, "X": self.limit,
            "envelopes": [
                {"kind": e.kind, **{key: getattr(e, name) for key, name in _ENVELOPE_KEYS.items()
                                    if getattr(e, name) is not None}}
                for e in self.envelopes
            ],
            "split": self.split if isinstance(self.split, str)
            else {"U": float(self.split[0]), "V": float(self.split[1])},
        }
        if self.plan is not None:
            out["plan"] = json.loads(self.plan.to_json())
        if self.budget is not None:
            out["budget"] = {key: getattr(self.budget, name) for key, name in _BUDGET_KEYS.items()}
        return out


# -- field readers, shared by parse_config and the CLI ----------------------
# Each takes a parsed JSON value (reals as exact Decimals) and the field path
# or flag `where`, which a ConfigError names together with the bad value.


def _fail(where: str, msg: str) -> ConfigError:
    return ConfigError(f"{where}: {msg}")


def _expect(ok: bool, where: str, what: str, value) -> None:
    if not ok:
        shown = str(value) if isinstance(value, Decimal) else repr(value)
        raise _fail(where, f"expected {what}, got {shown}")


def _is_real(value) -> bool:
    """A finite number, not a bool (NaN is the one value unequal to itself)."""
    return (isinstance(value, (int, float, Decimal)) and not isinstance(value, bool)
            and value == value and abs(value) != math.inf)


def _build(cls, where: str, **fields):
    """cls(**fields), with the invariant it rejects reported at `where`."""
    try:
        return cls(**fields)
    except KfreesumsError as e:
        raise _fail(where, str(e)) from None


def read_json(text: str, what: str = "config"):
    try:
        return json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from None


def parse_number(text: str):
    """CLI text as a config holds it: an int or a Decimal, else the text itself."""
    try:
        value = json.loads(text, parse_float=Decimal)
    except ValueError:
        return text
    return value if _is_real(value) else text


def read_int(value, where: str, minimum: int) -> int:
    _expect(_is_real(value) and value == int(value), where, "an integer", value)
    if value < minimum:
        raise _fail(where, f"must be >= {minimum}, got {int(value)}")
    return int(value)


read_modulus = partial(read_int, minimum=3)
read_k = partial(read_int, minimum=2)
read_limit = partial(read_int, minimum=1)


def read_real(value, where: str) -> int | float:
    """A finite real: an int stays exact, any other real becomes a float."""
    _expect(_is_real(value), where, "a real number", value)
    return value if isinstance(value, int) else float(value)


def read_ratio(value, where: str = "schedule_ratio") -> float:
    ratio = float(read_real(value, where))
    if ratio <= 1.0:
        raise _fail(where, f"must exceed 1, got {value}")
    return ratio


def read_split(value, where: str = "split") -> str | tuple[Decimal, Decimal]:
    """"theorem2", "sqrt", or exact real U, V given as "U,V" or {"U": .., "V": ..}."""
    if value in (DEFAULT_SPLIT, "sqrt"):
        return value
    if isinstance(value, str) and value.count(",") == 1:
        value = dict(zip("UV", map(parse_number, value.split(","))))
    _expect(isinstance(value, dict) and set(value) == {"U", "V"}, where,
            '"theorem2", "sqrt", "U,V" or an object {U, V}', value)
    for key in "UV":
        _expect(_is_real(value[key]), f"{where}.{key}", "a real number", value[key])
    return Decimal(value["U"]), Decimal(value["V"])


def read_plan(block, modulus: int, where: str = "plan") -> ModificationPlan:
    """A modification plan of the character mod `modulus`."""
    _expect(isinstance(block, dict), where, "an object", block)
    if "modulus" in block and read_modulus(block["modulus"], f"{where}.modulus") != modulus:
        raise _fail(f"{where}.modulus", f"{block['modulus']} disagrees with modulus {modulus}")
    fields = {}
    if "flipped_primes" in block:
        flips = block["flipped_primes"]
        _expect(isinstance(flips, list), f"{where}.flipped_primes", "a list", flips)
        fields["flipped_primes"] = tuple(
            read_int(p, f"{where}.flipped_primes[{i}]", 2) for i, p in enumerate(flips))
    if "unit_on_q_divisors" in block:
        unit = fields["unit_on_q_divisors"] = block["unit_on_q_divisors"]
        _expect(isinstance(unit, bool), f"{where}.unit_on_q_divisors", "true or false", unit)
    chi = build_real_character(modulus)
    return _build(ModificationPlan, f"{where}.flipped_primes", character=chi, **fields)


def read_budget(block, k: int | None, where: str = "budget") -> DeviationBudget:
    """A deviation budget; absent or null constants keep DeviationBudget's defaults."""
    _expect(isinstance(block, dict), where, "an object", block)
    fields = {} if k is None else {"k": k}
    for key, name in _BUDGET_KEYS.items():
        value, at = block.get(key), f"{where}.{key}"
        if value is not None:
            fields[name] = read_int(value, at, 2) if key == "x0" else float(read_real(value, at))
    return _build(DeviationBudget, where, **fields)


def read_envelope(block, where: str) -> EnvelopeSpec:
    _expect(isinstance(block, dict) and "kind" in block, where, "an object with a 'kind'", block)
    fields = {}
    for key, name in _ENVELOPE_KEYS.items():
        value, at = block.get(key), f"{where}.{key}"
        if value is not None:
            fields[name] = read_int(value, at, 1) if key == "k" else read_real(value, at)
    if "scale" in fields:
        fields["scale"] = float(fields["scale"])
    return _build(EnvelopeSpec, where, kind=block["kind"], **fields)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, with line-level diagnostics."""
    data = read_json(text)
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"modulus", "k", "X", "plan", "budget", "envelopes", "split", "schedule_ratio"}
    for key in data:
        if key not in known:
            raise _fail(key, "unknown key")
    for key in ("modulus", "k", "X"):
        if key not in data:
            raise _fail(key, "missing required key")
    modulus, k = read_modulus(data["modulus"], "modulus"), read_k(data["k"], "k")

    plan = None if data.get("plan") is None else read_plan(data["plan"], modulus)
    if data.get("budget") is not None:
        budget = read_budget(data["budget"], k)
    else:
        budget = None if plan is None else DeviationBudget(k=k)
    envelopes = data.get("envelopes", [{"kind": "power", "alpha": Decimal("0.25")}])
    _expect(isinstance(envelopes, list), "envelopes", "a list", envelopes)
    ratio = data.get("schedule_ratio")
    return ExperimentConfig(
        modulus=modulus, k=k, limit=read_limit(data["X"], "X"), plan=plan, budget=budget,
        envelopes=[read_envelope(e, f"envelopes[{i}]") for i, e in enumerate(envelopes)],
        split=read_split(data.get("split", DEFAULT_SPLIT)),
        schedule_ratio=None if ratio is None else read_ratio(ratio),
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def config_rules(modulus: int, plan: ModificationPlan | None, k: int | None):
    """(f, g, chi): g is chi mod `modulus` modified by the plan, f = g on k-free n."""
    chi = build_real_character(modulus)
    g = character_rule(chi) if plan is None else modified_character(plan)
    return (g if k is None else g.truncated(k)), g, chi


def resolve_split(split, x: int, k: int) -> HyperbolaSplit:
    """The HyperbolaSplit of x for a split as `read_split` returns it."""
    if split == DEFAULT_SPLIT:
        return optimal_split(x, k)
    if split == "sqrt":
        return sqrt_split(x)
    return explicit_split(x, *split)


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Produce the full report bundle for a config; returns the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    from .reporting import write_csv, write_json

    f, g, chi = config_rules(cfg.modulus, cfg.plan, cfg.k)
    schedule = checkpoint_schedule(cfg.limit, ratio=cfg.schedule_ratio)
    series = direct_summatory(f, cfg.limit, schedule=schedule)
    series.to_csv(out / "series.csv")

    summary: dict = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config": cfg.raw,
        "function": f.label,
        "final": {"x": series.final[0], "M": series.final[1]},
        "max_abs": int(series.abs_max[-1]),
    }

    if cfg.budget is not None and cfg.limit >= cfg.budget.x0:
        budget_report = verify_deviation_budget(g, chi, cfg.budget, cfg.limit, schedule)
        budget_report.to_csv(out / "budget.csv")
        fv = budget_report.first_violation
        summary["budget"] = {
            "passed": budget_report.passed,
            "first_violation": None if fv is None else dict(zip(("x", "S", "budget"), fv)),
        }

    envelopes = []
    for env in cfg.envelopes:
        ratio, at = envelope_ratio(series, env, x_min=min(DEFAULT_X_MIN, cfg.limit))
        envelopes.append({"kind": env.kind, "curve": env.describe(), "max_ratio": ratio,
                          "arg_max": at})
    write_csv(out / "envelopes.csv", ["kind", "curve", "max_ratio", "arg_max"],
              [tuple(e.values()) for e in envelopes])
    summary["envelopes"] = envelopes

    fit_x_min = DEFAULT_X_MIN if cfg.limit >= 10 * DEFAULT_X_MIN else int(series.xs[0])
    try:
        fit_payload = asdict(fit_exponent(series, x_min=fit_x_min))
    except FitError as e:
        fit_payload = {"error": str(e)}
    write_json(out / "fit.json", fit_payload)
    summary["fit"] = fit_payload
    summary["split"] = asdict(resolve_split(cfg.split, cfg.limit, cfg.k))
    write_json(out / "summary.json", summary)
    return summary


@dataclass(frozen=True)
class CompareReport:
    x: int
    direct_value: int
    hyperbola_value: int
    direct_seconds: float
    hyperbola_seconds: float


def compare_methods(f: MultiplicativeRule, k: int, x: int, split: HyperbolaSplit) -> CompareReport:
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
    direct = direct_summatory(f, x, schedule=[x]).final[1]
    t1 = time.perf_counter()
    hyper = kfree_hyperbola_sum(f.without_truncation(), k, split)
    t2 = time.perf_counter()

    if hyper != direct:
        raise MethodMismatchError(
            f"hyperbola {hyper} != direct {direct} for {f.label} at x={x}: correctness bug"
        )
    return CompareReport(
        x=x, direct_value=direct, hyperbola_value=hyper,
        direct_seconds=t1 - t0, hyperbola_seconds=t2 - t1,
    )
