import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from kfreesums import ModificationPlan, build_real_character
from kfreesums.cli import main


def test_sieve_mobius_stdout(capsys):
    assert main(["sieve", "--kind", "mobius", "--hi", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1,1" and out[3] == "4,0"


def test_sieve_primes(capsys):
    assert main(["sieve", "--kind", "primes", "--hi", "10"]) == 0
    assert capsys.readouterr().out.split() == ["2", "3", "5", "7"]


def test_sieve_csv_out(tmp_path):
    out = tmp_path / "mu.csv"
    assert main(["sieve", "--kind", "mobius", "--hi", "5", "--out", str(out)]) == 0
    assert out.read_text() == "n,value\n1,1\n2,-1\n3,-1\n4,0\n5,-1\n"


def test_sum_command(tmp_path, capsys):
    out = tmp_path / "series.csv"
    rc = main(["sum", "--modulus", "3", "--k", "2", "--limit", "10000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,M,abs_max"
    assert "M_" in capsys.readouterr().out


def test_sum_thread_determinism(tmp_path):
    # 3,000,000 spans three 2^20 windows, so the workers overlap
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sum", "--modulus", "3", "--k", "2", "--limit", "3000000", "--out", str(a)])
    main(["sum", "--modulus", "3", "--k", "2", "--limit", "3000000", "--threads", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_mertens_command(capsys):
    assert main(["mertens", "--limit", "10000", "--check"]) == 0
    out = capsys.readouterr().out
    assert "M(10000) = -23" in out and "agree" in out


def test_verify_budget_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "budget.csv"
    rc = main(["verify-budget", "--modulus", "3", "--limit", "100000", "--out", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "x,S,budget,pass"

    plan = ModificationPlan(
        character=build_real_character(3), flipped_primes=(5, 7, 11, 13, 17, 19)
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan.to_json())
    rc = main(["verify-budget", "--modulus", "3", "--limit", "1000",
               "--plan", str(plan_path)])
    assert rc == 0
    assert "FAIL" in capsys.readouterr().out


def test_verify_budget_with_a_valley_past_the_float_range(capsys):
    assert main(["verify-budget", "--modulus", "3", "--c", "30", "--limit", "1000"]) == 0
    assert "FAIL: S(10) = 1" in capsys.readouterr().out


def test_distance_command(capsys):
    assert main(["distance", "--modulus", "3", "--limit", "1000"]) == 0
    out = capsys.readouterr().out
    assert "D^2 = 0.333333" in out


def test_distance_command_past_the_sieve_budget(capsys):
    # g and chi share one character, so only the finite set is summed
    assert main(["distance", "--modulus", "3", "--limit", str(10**12)]) == 0
    assert f"; {10**12}) = 0.57735  (D^2 = 0.333333)" in capsys.readouterr().out


def test_prime_sieve_past_the_byte_budget_exits_2(capsys):
    assert main(["sieve", "--kind", "primes", "--hi", str(10**12)]) == 2
    assert f"prime sieve to {10**12} needs" in capsys.readouterr().err


def test_fit_command(tmp_path, capsys):
    series = tmp_path / "series.csv"
    main(["sum", "--modulus", "3", "--k", "2", "--limit", "100000", "--out", str(series)])
    capsys.readouterr()
    assert main(["fit", "--series", str(series), "--x-min", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"slope", "intercept", "residual", "x_min", "points"}


@pytest.mark.parametrize("text, message", [
    ("x,M\n10,1\n", "no column 'abs_max'"),
    ("x,abs_max\n10,1\n", "no column 'M'"),
    ("", "no column 'x'"),
    ("x,M,abs_max\n10,1,1\n20,1.5,1\n", "line 3, column 'M': expected an integer, got 1.5"),
    ("x,M,abs_max\n10,1,one\n", "line 2, column 'abs_max': expected an integer, got 'one'"),
    ("x,M,abs_max\n10,1\n", "line 2, column 'abs_max': expected an integer, got ''"),
    ("x,M,abs_max\n0,0,0\n", "line 2, column 'x': must be >= 1, got 0"),
])
def test_fit_series_errors_exit_two(tmp_path, capsys, text, message):
    series = tmp_path / "series.csv"
    series.write_text(text)
    assert main(["fit", "--series", str(series)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {series}: ") and message in err


def test_figure1_command(tmp_path, capsys):
    rc = main(["figure1", "--limit", "10000", "--out", str(tmp_path / "fig")])
    assert rc == 0
    assert "max |M(x)| / x^0.25" in capsys.readouterr().out
    svg = tmp_path / "fig" / "figure1.svg"
    assert len(ET.parse(svg).getroot().findall(
        ".//{http://www.w3.org/2000/svg}polyline")) == 3


def test_compare_command(capsys):
    rc = main(["compare", "--modulus", "3", "--k", "2", "--limit", "10000",
               "--split", "theorem2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "values agree: exact" in out
    rc = main(["compare", "--modulus", "3", "--k", "2", "--limit", "1000",
               "--split", "31.6,31.6"])
    assert rc == 0


def test_run_command(tmp_path, capsys):
    cfg = {
        "modulus": 3, "k": 2, "X": 10**4,
        "plan": {"modulus": 3, "flipped_primes": []},
        "envelopes": [{"kind": "power", "alpha": 0.25}],
        "split": "theorem2",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "bundle")])
    assert rc == 0
    assert (tmp_path / "bundle" / "summary.json").exists()
    assert "budget: PASS" in capsys.readouterr().out


def test_cli_error_reporting(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{broken")
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sum", "--modulus", "3", "--limit", "1000"],
    ["figure1", "--limit", "1000", "--out", "{out}"],
    ["compare", "--limit", "1000"],
    ["run", "--config", str(Path(__file__).parent / "golden/readme_q3/config.json"), "--out", "{out}"],
])
def test_thread_count_below_one_is_rejected(argv, tmp_path, capsys):
    # read once, when the arguments are parsed: nothing is computed or written
    out = tmp_path / "out"
    rc = main([a.format(out=out) for a in argv] + ["--threads", "0"])
    assert rc == 2
    assert "--threads: must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_csv_line_endings_are_lf(tmp_path):
    out = tmp_path / "s.csv"
    main(["sum", "--modulus", "3", "--limit", "1000", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_compare_split_is_exact(capsys):
    # as floats these parse to 100.0 and 10.0; the exact floors are 99 and 10
    rc = main(["compare", "--modulus", "3", "--k", "2", "--limit", "1000",
               "--split", "99.99999999999999999,10.000000000000000001"])
    assert rc == 0
    assert "(U = 99, V = 10)" in capsys.readouterr().out


def test_sum_without_k_is_untruncated(capsys):
    from kfreesums import character_rule, direct_summatory

    assert main(["sum", "--limit", "1000"]) == 0
    m = direct_summatory(character_rule(build_real_character(3)), 1000).final[1]
    assert f"M_chi_3(1000) = {m} " in capsys.readouterr().out
    assert main(["sum", "--limit", "1000", "--k", "0"]) == 2
    assert "--k: must be >= 2, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-budget", "--limit", "100", "--threads", "2"],
    ["distance", "--limit", "100", "--threads", "2"],
    ["distance", "--limit", "100", "--schedule", "1.1"],
    ["compare", "--limit", "100", "--schedule", "1.1"],
    ["figure1", "--limit", "100", "--out", "unused", "--plan", "p.json"],
])
def test_unread_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["sum", "--limit", "1e2.5"], "--limit: expected an integer, got '1e2.5'"),
    (["sum", "--limit", "100", "--schedule", "fast"],
     "--schedule: expected a real number, got 'fast'"),
    (["sum", "--limit", "100", "--schedule", "1"], "--schedule: must exceed 1, got 1"),
    (["verify-budget", "--limit", "100", "--x0", "2.5"], "--x0: expected an integer, got 2.5"),
    (["verify-budget", "--limit", "100", "--C", "abc"], "--C: expected a real number, got 'abc'"),
    (["compare", "--limit", "100", "--split", "a,10"], "--split.U: expected a real number, got 'a'"),
    (["compare", "--limit", "100", "--split", "diag"], "--split: expected \"theorem2\""),
    (["fit", "--series", "unread.csv", "--x-min", "2.5"], "--x-min: expected an integer, got 2.5"),
    (["fit", "--series", "unread.csv", "--x-min", "0"], "--x-min: must be >= 1, got 0"),
])
def test_flag_errors_name_flag_and_value(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_plan_file_errors_exit_two(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    for text, message in [
        ("{bad", "is not valid JSON: line 1"),
        ('{"modulus": 5}', "plan.modulus: 5 disagrees with modulus 3"),
        ('{"flipped_primes": [2.5]}', "plan.flipped_primes[0]: expected an integer, got 2.5"),
    ]:
        plan.write_text(text)
        assert main(["sum", "--limit", "100", "--plan", str(plan)]) == 2
        assert message in capsys.readouterr().err
