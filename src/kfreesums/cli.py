"""Command-line workbench tying the library together.

Subcommands: sieve, sum, mertens, verify-budget, distance, fit, figure1,
compare, run.  All file outputs are deterministic for a fixed invocation;
timings go to stdout only.  --threads (sum, figure1, compare, run) is
accepted and read as an integer >= 1, but passed to nothing: streams run
their windows on the calling thread, so it would change neither outputs
nor cost.  Flags that set a run-config field share that field's reader
with the config; a flag's ConfigError names the flag (exit status 2).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .analysis import fit_exponent, figure1, power_envelope, envelope_ratio
from .constructions import completed_character, pretentious_distance, verify_deviation_budget
from .errors import ConfigError, KfreesumsError
from .experiment import (
    DEFAULT_SPLIT, compare_methods, config_rules, load_config, parse_number, read_json,
    read_budget, read_int, read_k, read_limit, read_modulus, read_plan, read_ratio, read_real,
    read_split, resolve_split, run_experiment,
)
from .rules import character_rule
from .sieve import build_spf, sieve_kfree_segment, sieve_mobius_segment, sieve_primes
from .summatory import (
    PartialSumSeries, checkpoint_schedule, direct_summatory, mertens, mertens_recursive,
)


def _flag(read, name: str, *args):
    """argparse type: the flag's text, read by the reader of its config field."""
    return lambda text: read(parse_number(text), name, *args)


# options defined alike in every subcommand that takes them
_SHARED = {
    "--modulus": dict(type=_flag(read_modulus, "--modulus"), default=3,
                      help="character modulus q (default 3)"),
    "--limit": dict(type=_flag(read_limit, "--limit"), required=True, help="upper bound X"),
    "--plan": dict(help="modification plan JSON file"),
    "--threads": dict(type=_flag(read_int, "--threads", 1), default=1,
                      help="thread count (>= 1); changes nothing"),
    "--schedule": dict(type=_flag(read_ratio, "--schedule"), help="checkpoint ratio (> 1)"),
}


def _add(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_SHARED[name])


def _plan(args, default: dict | None = None):
    """The --plan file, read as a config's plan block, else the block
    `default` (None: no plan)."""
    if args.plan is not None:
        default = read_json(Path(args.plan).read_text(), f"plan file {args.plan}")
    return None if default is None else read_plan(default, args.modulus)


def cmd_sieve(args) -> int:
    lo, hi = args.lo, args.hi
    if args.kind == "primes":
        for p in sieve_primes(hi):
            if p >= lo:
                print(int(p))
        return 0
    if args.kind == "mobius":
        table = sieve_mobius_segment(lo, hi)
    elif args.kind == "kfree":
        table = sieve_kfree_segment(lo, hi, args.k)
    else:  # spf
        spf = build_spf(hi)
        for n in range(lo, hi + 1):
            print(f"{n},{int(spf.spf[n])}")
        return 0
    if args.out:
        table.to_csv(args.out)
        print(f"wrote {args.out}")
    else:
        for i, v in enumerate(table.values):
            print(f"{lo + i},{int(v)}")
    return 0


def cmd_sum(args) -> int:
    f, _, _ = config_rules(args.modulus, _plan(args), args.k)
    schedule = checkpoint_schedule(args.limit, ratio=args.schedule)
    series = direct_summatory(f, args.limit, schedule=schedule)
    if args.out:
        series.to_csv(args.out)
        print(f"wrote {args.out}")
    x, m = series.final
    print(f"M_{f.label}({x}) = {m} (max |M| = {int(series.abs_max[-1])})")
    return 0


def cmd_mertens(args) -> int:
    m = mertens(args.limit)
    print(f"M({args.limit}) = {m}")
    if args.check:
        r = mertens_recursive(args.limit)
        print(f"recursive path: {r} ({'agree' if r == m else 'DISAGREE'})")
        return 0 if r == m else 1
    return 0


def cmd_verify_budget(args) -> int:
    _, g, chi = config_rules(args.modulus, _plan(args, default={}), None)
    budget = read_budget({"C": args.C, "c": args.c, "x0": args.x0}, args.k)
    schedule = checkpoint_schedule(args.limit, ratio=args.schedule)
    report = verify_deviation_budget(g, chi, budget, args.limit, schedule)
    if args.out:
        report.to_csv(args.out)
        print(f"wrote {args.out}")
    if report.passed:
        print(f"PASS: S(x) within budget on [{budget.x0}, {args.limit}]")
    else:
        x, s, b = report.first_violation
        print(f"FAIL: S({x}) = {s} > budget {b:.6g}")
    return 0


def cmd_distance(args) -> int:
    _, g, chi = config_rules(args.modulus, _plan(args, default={}), None)
    ref = completed_character(chi) if args.against == "completed" else character_rule(chi)
    d = pretentious_distance(g, ref, args.limit)
    print(f"D({g.label}, {ref.label}; {args.limit}) = {d:.6g}  (D^2 = {d * d:.6g})")
    return 0


# series CSV columns and the least value each cell may hold
_SERIES_COLUMNS = {"x": 1, "M": -math.inf, "abs_max": 0}


def cmd_fit(args) -> int:
    path = args.series
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in _SERIES_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise ConfigError(f"{path}: no column {column!r}")
        # a short row leaves its missing cells None
        rows = [tuple(read_int(parse_number(r[c] or ""),
                               f"{path}: line {reader.line_num}, column {c!r}", low)
                      for c, low in _SERIES_COLUMNS.items())
                for r in reader]
    series = PartialSumSeries(label=Path(path).stem,
                              checkpoints=[(x, m) for x, m, _ in rows],
                              running_abs_max=[(x, a) for x, _, a in rows])
    fit = fit_exponent(series, x_min=args.x_min)
    print(json.dumps({
        "slope": round(fit.slope, 6), "intercept": round(fit.intercept, 6),
        "residual": round(fit.residual, 6), "x_min": fit.x_min, "points": fit.points,
    }, sort_keys=True))
    return 0


def cmd_figure1(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, svg_path = out / "figure1.csv", out / "figure1.svg"
    schedule = checkpoint_schedule(args.limit, ratio=args.schedule)
    series = figure1(args.limit, csv_path, svg_path, modulus=args.modulus, schedule=schedule)
    x_min = min(10**3, args.limit)
    ratio, at = envelope_ratio(series, power_envelope(0.25), x_min=x_min)
    print(f"wrote {csv_path} and {svg_path}")
    print(f"max |M(x)| / x^0.25 = {ratio:.6g} at x = {at} (x >= {x_min})")
    return 0


def cmd_compare(args) -> int:
    f, _, _ = config_rules(args.modulus, _plan(args), args.k)
    x = args.limit
    split = resolve_split(args.split, x, args.k)
    report = compare_methods(f, args.k, x, split)
    print(f"direct    M_{f.label}({x}) = {report.direct_value}"
          f"  [{report.direct_seconds:.3f} s]")
    print(f"hyperbola M_{f.label}({x}) = {report.hyperbola_value}"
          f"  [{report.hyperbola_seconds:.3f} s]"
          f"  (U = {split.u_floor}, V = {split.v_floor})")
    print("values agree: exact")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    summary = run_experiment(cfg, args.out)
    print(f"wrote bundle to {args.out}")
    print(f"final M = {summary['final']['M']} at x = {summary['final']['x']}")
    for env in summary["envelopes"]:
        print(f"envelope {env['curve']}: max ratio {env['max_ratio']:.6g} at x = {env['arg_max']}")
    if "budget" in summary:
        print(f"budget: {'PASS' if summary['budget']['passed'] else 'FAIL'}")
    if "slope" in summary["fit"]:
        print(f"fit slope: {summary['fit']['slope']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfreesums",
        description="Exact partial sums of multiplicative functions on k-free integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    k_flag = _flag(read_k, "--k")

    p = sub.add_parser("sieve", help="dump sieved tables (CSV columns n,value)")
    p.add_argument("--kind", choices=["primes", "mobius", "kfree", "spf"], default="mobius")
    p.add_argument("--lo", type=_flag(read_limit, "--lo"), default=1)
    p.add_argument("--hi", type=_flag(read_limit, "--hi"), required=True)
    p.add_argument("--k", type=k_flag, default=2)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("sum", help="stream exact partial sums of a rule")
    _add(p, "--modulus", "--limit", "--plan", "--threads", "--schedule")
    p.add_argument("--k", type=k_flag, help="k-free order (>= 2; untruncated when omitted)")
    p.add_argument("--out", type=str, default=None, help="series CSV path")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("mertens", help="exact Mertens value")
    _add(p, "--limit")
    p.add_argument("--check", action="store_true", help="cross-check the recursive path")
    p.set_defaults(func=cmd_mertens)

    p = sub.add_parser("verify-budget", help="check the prime-deviation budget")
    _add(p, "--modulus", "--limit", "--plan", "--schedule")
    p.add_argument("--k", type=k_flag, help="k-free order of the budget (>= 2)")
    p.add_argument("--C", type=_flag(read_real, "--C"), help="budget constant C")
    p.add_argument("--c", type=_flag(read_real, "--c"), help="budget constant c")
    p.add_argument("--x0", type=_flag(read_int, "--x0", 2), help="budget start x0")
    p.add_argument("--out", type=str, default=None, help="budget CSV path")
    p.set_defaults(func=cmd_verify_budget)

    p = sub.add_parser("distance", help="pretentious distance of a plan's g from chi")
    _add(p, "--modulus", "--limit", "--plan")
    p.add_argument("--against", choices=["character", "completed"], default="character")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("fit", help="fit the growth exponent of a series CSV")
    p.add_argument("--series", type=str, required=True)
    p.add_argument("--x-min", type=_flag(read_int, "--x-min", 1), default=10**3)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("figure1", help="partial sums vs +-x^(1/4): CSV + SVG")
    _add(p, "--modulus", "--limit", "--threads", "--schedule")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("compare", help="hyperbola vs direct summation, timed")
    _add(p, "--modulus", "--limit", "--plan", "--threads")
    p.add_argument("--k", type=k_flag, default=2, help="k-free order (>= 2)")
    p.add_argument("--split", type=_flag(read_split, "--split"), default=DEFAULT_SPLIT,
                   help='"theorem2", "sqrt", or "U,V" (exact reals)')
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="config-driven report bundle")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    _add(p, "--threads")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except KfreesumsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
