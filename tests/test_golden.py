"""Golden run bundles: every file of a `run` bundle, byte for byte.

Each directory under tests/golden/ holds a run config and the bundle that
`run_experiment` wrote for it when the fixture was made.  A change that
alters any byte of a bundle (a parser, a writer, a summation path) fails
here; regenerate a fixture only for a deliberate change of output format.
"""

from pathlib import Path

import pytest

from kfreesums import load_config, run_experiment

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(d.name for d in GOLDEN.iterdir() if d.is_dir())


@pytest.mark.parametrize("name", CASES)
def test_run_bundle_matches_golden(name, tmp_path):
    case = GOLDEN / name
    run_experiment(load_config(case / "config.json"), tmp_path, threads=2)
    expected = {p.name: p.read_bytes() for p in sorted((case / "bundle").iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from the golden bundle"


def test_golden_cases_present():
    assert CASES == ["q15_k3_flips", "q5_bare", "readme_q3"]
