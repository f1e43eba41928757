import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kfreesums import (
    ConfigError,
    MethodMismatchError,
    ModificationPlan,
    RangeError,
    build_real_character,
    character_rule,
    compare_methods,
    explicit_split,
    modified_character,
    optimal_split,
    parse_config,
    run_experiment,
    sqrt_split,
)
from kfreesums.experiment import config_rules, resolve_split

from oracles import partial_sum_enumeration, primes_trial, rule_value_brute


BASE_CONFIG = {
    "modulus": 3,
    "k": 2,
    "X": 10**4,
    "plan": {"modulus": 3, "flipped_primes": [], "unit_on_q_divisors": True},
    "budget": {"C": 2.0, "c": 1.0, "x0": 10},
    "envelopes": [{"kind": "power", "alpha": 0.25}],
    "split": "theorem2",
}


def digest_dir(d: Path) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(d.iterdir())}


def test_parse_config_round_trip():
    cfg = parse_config(json.dumps(BASE_CONFIG))
    assert cfg.modulus == 3 and cfg.k == 2 and cfg.limit == 10**4
    assert cfg.plan is not None and cfg.plan.flipped_primes == ()
    assert cfg.budget.big_c == 2.0
    assert cfg.split == "theorem2"


def test_parse_config_rejects_k_below_two():
    bad = dict(BASE_CONFIG, k=1)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(bad))
    assert "k" in str(err.value)


def test_parse_config_json_diagnostics_carry_position():
    with pytest.raises(ConfigError) as err:
        parse_config('{"modulus": 3,\n  "k": }')
    assert "line 2" in str(err.value)


def test_parse_config_unknown_key():
    bad = dict(BASE_CONFIG, qq=1)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad))


def test_parse_config_split_forms():
    cfg = parse_config(json.dumps(dict(BASE_CONFIG, split={"U": 100, "V": 100})))
    split = resolve_split(cfg.split, 10**4, cfg.k)
    assert (split.u_floor, split.v_floor) == (100, 100)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(dict(BASE_CONFIG, split="diag")))
    with pytest.raises(ConfigError):
        parse_config(json.dumps(dict(BASE_CONFIG, split={"U": 10})))


def test_parse_config_plan_modulus_mismatch():
    bad = dict(BASE_CONFIG, plan={"modulus": 5, "flipped_primes": []})
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad))


def test_config_without_plan_uses_bare_character():
    cfg = parse_config(json.dumps({"modulus": 3, "k": 2, "X": 100}))
    f, g, chi = config_rules(cfg.modulus, cfg.plan, cfg.k)
    assert g.prime_value(3) == 0      # bare character vanishes on q
    assert f.k_truncation == 2
    cfg2 = parse_config(json.dumps(BASE_CONFIG))
    _, g2, _ = config_rules(cfg2.modulus, cfg2.plan, cfg2.k)
    assert g2.prime_value(3) == 1     # plan completes it


def test_run_experiment_bundle_contents(tmp_path):
    cfg = parse_config(json.dumps(BASE_CONFIG))
    summary = run_experiment(cfg, tmp_path / "bundle")
    files = {f.name for f in (tmp_path / "bundle").iterdir()}
    assert files == {"series.csv", "budget.csv", "envelopes.csv", "fit.json", "summary.json"}
    assert summary["schema_version"] == "1"
    assert summary["budget"]["passed"] is True
    loaded = json.loads((tmp_path / "bundle" / "summary.json").read_text())
    assert loaded["schema_version"] == "1"
    assert loaded["final"]["x"] == 10**4


def test_run_experiment_deterministic_bundles(tmp_path):
    cfg = parse_config(json.dumps(BASE_CONFIG))
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    assert digest_dir(tmp_path / "a") == digest_dir(tmp_path / "b")


def test_compare_methods_equal_and_timed():
    chi3 = build_real_character(3)
    f = character_rule(chi3, k=2)
    rep = compare_methods(f, 2, 10**4, sqrt_split(10**4))
    assert rep.direct_value == rep.hyperbola_value
    assert rep.direct_seconds >= 0 and rep.hyperbola_seconds >= 0
    rep2 = compare_methods(f, 2, 10, explicit_split(10, 10.0, 1.0))
    assert rep2.direct_value == rep2.hyperbola_value
    rep3 = compare_methods(f, 2, 10**5, optimal_split(10**5, 2))
    assert rep3.direct_value == rep3.hyperbola_value


def test_compare_methods_rejects_wrong_k():
    chi3 = build_real_character(3)
    f = character_rule(chi3, k=3)
    with pytest.raises(ConfigError):
        compare_methods(f, 2, 100, sqrt_split(100))


def test_method_mismatch_is_hard_failure(monkeypatch):
    chi3 = build_real_character(3)
    f = character_rule(chi3, k=2)
    import kfreesums.experiment as exp
    import kfreesums.summatory as summatory

    def corrupted(*args, **kwargs):
        return 10**9

    monkeypatch.setattr(summatory, "hyperbola_sum", corrupted)
    with pytest.raises(MethodMismatchError):
        exp.compare_methods(f, 2, 10**3, sqrt_split(10**3))


def test_wrong_direct_side_is_hard_failure(monkeypatch):
    import kfreesums.summatory as summatory

    window_sum = summatory._window_sum
    monkeypatch.setattr(summatory, "_window_sum", lambda vals: window_sum(vals) + 1)
    with pytest.raises(MethodMismatchError):
        compare_methods(character_rule(build_real_character(3), k=2), 2, 10**3, sqrt_split(10**3))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compare_methods_matches_brute_force(data):
    q = data.draw(st.sampled_from([3, 4, 5, 8, 15]), label="q")
    chi = build_real_character(q)
    flips = data.draw(
        st.lists(st.sampled_from([p for p in primes_trial(40) if q % p]),
                 max_size=3, unique=True),
        label="flips",
    )
    unit = data.draw(st.booleans(), label="unit_on_q_divisors")
    k = data.draw(st.sampled_from([2, 3, 4]), label="k")
    x = data.draw(st.integers(1, 3000), label="x")
    u = data.draw(st.floats(1.0, float(x)), label="U")
    g = modified_character(ModificationPlan(character=chi, flipped_primes=tuple(flips),
                                            unit_on_q_divisors=unit))
    f = g.truncated(k)
    rep = compare_methods(f, k, x, explicit_split(x, u, x / u))
    assert rep.hyperbola_value == partial_sum_enumeration(lambda n: rule_value_brute(f, n), x)


def test_compare_methods_rejects_split_for_other_x():
    f = character_rule(build_real_character(3), k=2)
    with pytest.raises(RangeError, match="x=900"):
        compare_methods(f, 2, 1000, sqrt_split(900))


@pytest.mark.parametrize("patch, message", [
    ({"plan": {"modulus": "x"}}, "plan.modulus: expected an integer, got 'x'"),
    ({"budget": {"C": "abc"}}, "budget.C: expected a real number, got 'abc'"),
    ({"plan": {"flipped_primes": 5}}, "plan.flipped_primes: expected a list, got 5"),
    ({"split": {"U": "a", "V": 10}}, "split.U: expected a real number, got 'a'"),
    ({"schedule_ratio": "fast"}, "schedule_ratio: expected a real number, got 'fast'"),
    ({"envelopes": [{"kind": "power", "alpha": "q"}]},
     "envelopes[0].alpha: expected a real number, got 'q'"),
    ({"budget": {"x0": 2.5}}, "budget.x0: expected an integer, got 2.5"),
    ({"plan": {"flipped_primes": [2.5]}}, "plan.flipped_primes[0]: expected an integer, got 2.5"),
    ({"X": 1000.5}, "X: expected an integer, got 1000.5"),
    ({"k": "@real"}, "k: expected an integer, got 2.0000000000000000001"),
    ({"plan": {"unit_on_q_divisors": 1}}, "plan.unit_on_q_divisors: expected true or false, got 1"),
    ({"plan": {"flipped_primes": [25]}}, "plan.flipped_primes: flip index 25 is not prime"),
    ({"budget": {"C": -1}}, "budget: budget constants must be positive: C=-1.0"),
    ({"schedule_ratio": 1}, "schedule_ratio: must exceed 1, got 1"),
    ({"envelopes": {"kind": "power"}}, "envelopes: expected a list"),
    ({"envelopes": [{"kind": "theorem1", "k": 2.5, "lambda": 1}]},
     "envelopes[0].k: expected an integer, got 2.5"),
])
def test_parse_config_errors_name_field_and_value(patch, message, tmp_path, capsys):
    from kfreesums.cli import main

    # "@real" stands for a real that no float can hold
    text = json.dumps(dict(BASE_CONFIG, **patch)).replace('"@real"', "2.0000000000000000001")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert message in str(err.value)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_config_split_is_exact():
    cfg = parse_config(json.dumps(BASE_CONFIG).replace(
        '"theorem2"', '{"U": 99.99999999999999999, "V": 10.000000000000000001}'))
    split = resolve_split(cfg.split, 1000, cfg.k)
    assert (split.u_floor, split.v_floor) == (99, 10)
    # the bundle's config echo prints the split as floats, as before
    assert cfg.raw["split"] == {"U": 100.0, "V": 10.0}
    for text in ('"sqrt"', '"99.99999999999999999,10.000000000000000001"'):
        cfg = parse_config(json.dumps(BASE_CONFIG).replace('"theorem2"', text))
        assert resolve_split(cfg.split, 1000, cfg.k) == (
            sqrt_split(1000) if text == '"sqrt"' else split)
