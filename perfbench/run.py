"""Benchmark of the kfreesums public API.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 55 --trace 0

A single-process closed loop: one caller issues each call after the
previous one returns (threads=2 only inside the stream part's third path).
Workloads are `kernels` and `oracles` (see workloads.py); `all` runs each
in its own process and prints every named metric of the four parts.

--trace 0 runs iterations for --seconds and reports the end-to-end metrics:
setup_s (median over this process and four fresh set-up processes of the
CPU seconds each spends to start, import, build the inputs and run one
warm-up iteration at smoke size), peak_rss_mib, and path1_s..path6_s, the
mean seconds per call of each of the workload's six timed paths.  A call's
seconds are the process CPU seconds it took, except on the stream part's
threads=2 path, whose point is the wall time a second thread saves: there
they are wall seconds.  CPU seconds leave out the time that other tenants
of a shared host take from this process, which wall seconds count in full.
Set-up and path seconds are then scaled to the tuning machine's speed by
fixed reference work timed in the same process (see end_to_end).  The
mean, not the median, because host contention comes in phases of 5-30 s:
a run's median snaps to whichever phase covers most of the run, while its
mean follows the share of each.

--trace 1 runs a fixed number of iterations, each untraced and then traced
on the same inputs, and reports the per-layer metrics of tracing.py,
tracing overhead included; the spans go to
perfbench/out/trace-<workload>-seed<seed>.json.

Every result is checked by a second exact route outside the timed region.
The last stdout line is the JSON result; lines before it describe the
machine and print each metric by name, unit and direction.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
TRACE_ITERATIONS = 3
# About the CPU seconds each reference takes inside a run on the 2-vCPU
# Xeon VM the benchmark was tuned on; path times are scaled to that speed
# (see end_to_end).
REFERENCE_S = {"python": 0.065, "both": 0.12}

from tracing import PER_LAYER, Tracer, layer_metrics, span_records  # noqa: E402
from workloads import WORKLOADS, Recorder, Workload  # noqa: E402


def import_package():
    """kfreesums from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kfreesums
    except ImportError as e:
        sys.exit(f"perfbench: cannot import kfreesums from {src}: {e}")
    if Path(kfreesums.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported kfreesums from {kfreesums.__file__}, not {src}")
    return kfreesums


def machine(seed: int) -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def set_up(api, args, work_dir: Path):
    """The workload's inputs plus one warm-up iteration at smoke size."""
    parts = WORKLOADS[args.workload]
    workload = Workload(parts, api, random.Random(args.seed), "smoke" if args.smoke else "full", work_dir)
    warm = Recorder(api.KfreesumsError, len(workload.paths))
    Workload(parts, api, random.Random(args.seed), "smoke", work_dir).iteration(random.Random(args.seed), warm)
    return workload, warm


def probe_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def reference_python() -> int:
    """Fixed interpreter work that calls nothing in kfreesums."""
    s, seen = 0, {}
    for i in range(400_000):
        s = (s * 31 + i) % 1_000_003
        seen[s & 1023] = i
    return s


def reference_numpy() -> int:
    """Fixed array work that calls nothing in kfreesums: passes over 2 MiB."""
    import numpy as np

    a = np.arange(1, (1 << 18) + 1, dtype=np.int64)
    for _ in range(16):
        m = np.maximum.accumulate(np.cumsum(a % 7 - 3))
    return int(m[-1])


def timed(fn) -> tuple[float, float]:
    """(wall s, CPU s) of one call of fn."""
    w0, c0 = time.perf_counter(), time.process_time()
    fn()
    return time.perf_counter() - w0, time.process_time() - c0


def measure(workload, rng, seconds: float, rec: Recorder) -> tuple[int, list[dict]]:
    """Iterations run, and per iteration the (wall s, CPU s) of the references
    timed before it: the Python one alone ("python"), and both ("both")."""
    start = time.perf_counter()
    iterations, ref = 0, []
    while iterations == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        py, npy = timed(reference_python), timed(reference_numpy)
        ref.append({"python": py, "both": (py[0] + npy[0], py[1] + npy[1])})
        workload.iteration(random.Random(rng.getrandbits(64)), rec)
        iterations += 1
    return iterations, ref


def end_to_end(workload, setup_samples, rec: Recorder, ref, attempted: int, failed: int):
    """(result metrics, named metrics) from the timed samples.

    A path's seconds are scaled by REFERENCE_S / the run's mean seconds of
    its reference, on the same clock.  The host's speed drifts by up to a
    quarter over minutes, and across runs the paths' means follow the whole
    reference's with correlation ~0.95.  Interpreter-bound paths slowed
    about 1.5-1.9x as much as the whole reference, so they are scaled by
    its Python part alone.  The scaled mean is what the call costs at the
    tuning machine's speed, and a change to kfreesums moves it by the same
    share as the raw mean, as the references do not depend on kfreesums.
    """
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setup_samples)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    named = {
        "setup_s": (setup_s, "s", "lower", f"median of {len(setup_samples)} set-ups, scaled by the python reference"),
        "peak_rss_mib": (rss_mib, "MiB", "lower", "this workload process"),
        "fail_ratio": (failed / max(attempted, 1), "ratio", "lower", f"{failed} of {attempted} checks failed"),
    }
    for i, (path, samples) in enumerate(zip(workload.paths, rec.samples), 1):
        wall = [w for _, w, _ in samples]
        cpu = [c for _, _, c in samples]
        seconds, k = (wall, 0) if path.clock == "wall" else (cpu, 1)
        scale = REFERENCE_S[path.reference] / statistics.fmean(r[path.reference][k] for r in ref)
        mean_s = statistics.fmean(seconds) * scale
        metrics[f"path{i}_s"] = {"value": mean_s, "unit": "s"}
        if path.unit == "n/s":
            value, better = sum(x for x, _, _ in samples) / (sum(seconds) * scale), "higher"
        else:
            value, better = mean_s, "lower"
        note = (f"path{i}_s, {path.clock} mean of {len(seconds)} calls x {scale:.4f} by the "
                f"{path.reference} reference (raw wall mean {statistics.fmean(wall):.4g} s, cpu mean "
                f"{statistics.fmean(cpu):.4g} s, {path.clock} median "
                f"{statistics.median(seconds):.4g} s")
        tail = len(seconds) - 10  # the highest percentile with 10 calls beyond it
        if tail >= len(seconds) / 2:
            note += f", p{100 * tail // len(seconds)} {sorted(seconds)[tail - 1]:.4g} s"
        note += f"): {path.what}"
        named[path.name] = (value, path.unit, better, note)
    return metrics, named


def traced_run(workload, rng, plain: Recorder, traced: Recorder, args):
    tracer = Tracer()
    for i in range(TRACE_ITERATIONS):
        inputs = rng.getrandbits(64)
        gc.collect()
        workload.iteration(random.Random(inputs), plain)
        gc.collect()
        tracer.install(i)
        try:
            workload.iteration(random.Random(inputs), traced)
        finally:
            tracer.uninstall()
    values = layer_metrics(tracer, traced.wall() / plain.wall())
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "machine": machine(args.seed), "iterations": TRACE_ITERATIONS,
        "metrics": values, "counts": dict(tracer.counts), "spans": span_records(tracer),
    }))
    metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
    named = {k: (v, *PER_LAYER[k], "") for k, v in values.items()}
    return metrics, named


def run_one(args) -> int:
    api = import_package()
    work_dir = OUT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload, warm = set_up(api, args, work_dir)
        # CPU seconds of this process so far, scaled like an interpreter-bound path
        setup_s = time.process_time()
        setup_s *= REFERENCE_S["python"] / statistics.median(timed(reference_python)[1] for _ in range(3))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        rng = random.Random(args.seed)
        if args.trace:
            plain, traced = (Recorder(api.KfreesumsError, len(workload.paths)) for _ in range(2))
            metrics, named = traced_run(workload, rng, plain, traced, args)
            recs = (warm, plain, traced)
        else:
            rec = Recorder(api.KfreesumsError, len(workload.paths))
            iterations, ref = measure(workload, rng, args.seconds, rec)
            recs = (warm, rec)
            metrics, named = end_to_end(workload, [setup_s] + probe_setup(args), rec, ref,
                                        sum(r.attempted for r in recs), sum(r.failed for r in recs))
            print(f"{args.workload}.iterations = {iterations}; reference mean (wall s, CPU s): " + ", ".join(
                f"{k} ({statistics.fmean(r[k][0] for r in ref):.4g}, {statistics.fmean(r[k][1] for r in ref):.4g})"
                for k in REFERENCE_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    print(f"machine {json.dumps(machine(args.seed), sort_keys=True)}")
    for name, (value, unit, better, note) in named.items():
        print(f"{args.workload}.{name} = {value:.6g} {unit} ({better} is better){'  ' + note if note else ''}")
    print("named " + json.dumps({k: {"value": v[0], "unit": v[1], "better": v[2]} for k, v in named.items()}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the result merges their named metrics."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            if not line.startswith("named "):
                print(line)
        result = json.loads(lines[-1])
        named = json.loads(next(line for line in lines if line.startswith("named "))[6:])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": {"value": v["value"], "unit": v["unit"]} for k, v in named.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
