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


@pytest.mark.parametrize("argv, csv", [
    (["--kind", "mobius", "--hi", "5"], "n,value\n1,1\n2,-1\n3,-1\n4,0\n5,-1\n"),
    (["--kind", "kfree", "--k", "2", "--lo", "3", "--hi", "5"], "n,value\n3,1\n4,0\n5,1\n"),
    (["--kind", "primes", "--lo", "3", "--hi", "10"], "p\n3\n5\n7\n"),
    (["--kind", "spf", "--hi", "4"], "n,spf\n1,1\n2,2\n3,3\n4,2\n"),
])
def test_sieve_csv_out(tmp_path, capsys, argv, csv):
    # every kind writes --out, and prints the same rows without it
    out = tmp_path / "table.csv"
    assert main(["sieve", *argv, "--out", str(out)]) == 0
    assert out.read_text() == csv
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert main(["sieve", *argv]) == 0
    assert capsys.readouterr().out == csv.split("\n", 1)[1]


def test_sum_command(tmp_path, capsys):
    out = tmp_path / "series.csv"
    rc = main(["sum", "--modulus", "3", "--k", "2", "--limit", "10000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,M,abs_max"
    assert "M_" in capsys.readouterr().out


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
    # streams run on the calling thread: no subcommand takes a thread count
    ["sum", "--modulus", "3", "--limit", "1000", "--threads", "2"],
    ["figure1", "--limit", "1000", "--out", "unused", "--threads", "2"],
    ["compare", "--limit", "1000", "--threads", "2"],
    ["run", "--config", str(Path(__file__).parent / "golden/readme_q3/config.json"),
     "--out", "unused", "--threads", "2"],
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


@pytest.mark.parametrize("argv, flag", [
    (["run", "--config", "{path}", "--out", "{tmp}/bundle"], "--config"),
    (["sum", "--limit", "100", "--plan", "{path}"], "--plan"),
    (["compare", "--limit", "100", "--plan", "{path}"], "--plan"),
    (["verify-budget", "--limit", "100", "--plan", "{path}"], "--plan"),
    (["distance", "--limit", "100", "--plan", "{path}"], "--plan"),
    (["fit", "--series", "{path}"], "--series"),
])
@pytest.mark.parametrize("name, reason", [
    ("missing.json", "No such file or directory"),
    ("folder", "Is a directory"),
    ("latin1.json", "'utf-8' codec can't decode byte 0xe9"),
])
def test_unreadable_input_files_exit_two_naming_flag_and_path(tmp_path, capsys, argv, flag, name, reason):
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"flipped_primes": [], "é": 1}'.encode("latin-1"))
    path = tmp_path / name
    assert main([a.format(path=path, tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: cannot read {path}: ") and reason in err
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", str(Path(__file__).parent / "golden/readme_q3/config.json"), "--out", "{tmp}/file"],
     "cannot make directory {tmp}/file: File exists"),
    (["figure1", "--limit", "1000", "--out", "{tmp}/file/fig"],
     "cannot make directory {tmp}/file/fig: Not a directory"),
    (["sum", "--limit", "1000", "--out", "{tmp}/missing/x.csv"],
     "--out: cannot write {tmp}/missing/x.csv: no directory {tmp}/missing"),
    (["verify-budget", "--limit", "1000", "--out", "{tmp}"], "--out: cannot write {tmp}: it is a directory"),
    (["sieve", "--hi", "10", "--out", "{tmp}/missing/mu.csv"],
     "--out: cannot write {tmp}/missing/mu.csv: no directory {tmp}/missing"),
])
def test_output_paths_are_checked_before_computing(tmp_path, capsys, monkeypatch, argv, message):
    import kfreesums.cli as cli
    import kfreesums.experiment as experiment

    (tmp_path / "file").write_text("")
    # run_experiment makes its bundle directory before it computes
    for module, name in [(cli, "figure1"), (cli, "direct_summatory"), (cli, "verify_deviation_budget"),
                         (cli, "sieve_mobius_segment"), (experiment, "direct_summatory")]:
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("computed before checking --out"))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"


@pytest.mark.parametrize("kind", ["primes", "mobius", "kfree", "spf"])
def test_sieve_rejects_an_empty_window_for_every_kind(capsys, kind):
    assert main(["sieve", "--kind", kind, "--lo", "5", "--hi", "3"]) == 2
    assert capsys.readouterr().err == "error: hi must be >= 5, got 3\n"


def test_run_with_a_schedule_past_the_byte_budget_exits_two(tmp_path, capsys):
    cfg = tmp_path / "dense.json"
    cfg.write_text(json.dumps({"modulus": 3, "k": 2, "X": 4 * 10**9, "schedule_ratio": 1.0000001}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "bundle")]) == 2
    assert "checkpoint schedule of ratio 1.0000001 to 4000000000 needs" in capsys.readouterr().err
