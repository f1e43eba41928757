"""Smoke check of the benchmark, kept out of the test suite.

    python3 perfbench/smoke.py

Runs every workload at smoke sizes, the `all` command, two traced passes
and a copy of the benchmark without the package, in seconds.  It fails
unless every metric named in BENCHMARK.json and every named workload
metric is printed, no check fails, the traced counts repeat exactly, and
the copy without the package exits non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "B"}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def require(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAILED: {what}")


def run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args, "--smoke"],
                          capture_output=True, text=True, timeout=300)


def result(*args: str) -> dict:
    proc = run(HERE / "run.py", *args)
    require(proc.returncode == 0, f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.splitlines()[-1])
    require(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
            f"run.py {' '.join(args)}: {res['failed']} of {res['attempted']} checks failed")
    return res


def main() -> None:
    require([w["name"] for w in SPEC["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads")
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}

    for name in WORKLOADS:
        res = result("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
        require(set(res["metrics"]) == end_to_end, f"{name} prints exactly the end-to-end metrics")
        require(all(m["value"] > 0 for m in res["metrics"].values()), f"{name}: no end-to-end metric is 0")

    res = result("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0")
    named = {f"{w}.{m}" for w, parts in WORKLOADS.items()
             for m in ("setup_s", "peak_rss_mib", "fail_ratio", *(p[0] for part in parts for p in part.paths))}
    require(set(res["metrics"]) == named, "`all` prints every named workload metric")
    require(all(res["metrics"][f"{w}.fail_ratio"]["value"] == 0 for w in WORKLOADS), "fail_ratio == 0")

    first = result("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "1")
    second = result("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "1")
    for w in WORKLOADS:
        require({k.split(".", 1)[1] for k in first["metrics"] if k.startswith(w + ".")} == per_layer,
                f"traced {w} prints exactly the per-layer metrics")
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    require(counts == {k: second["metrics"][k]["value"] for k in counts}, "traced counts repeat at one seed")

    # a checkout holding only BENCHMARK.json and perfbench/ has no package to run
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = run(bare / "perfbench" / "run.py", "--workload", "kernels", "--seed", "1", "--seconds", "1", "--trace", "0")
        require(proc.returncode != 0 and "correct" not in proc.stdout, "run without the package fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"smoke: ok ({len(end_to_end)} end-to-end, {len(named)} named, {len(per_layer)} per-layer metrics)")


if __name__ == "__main__":
    main()
