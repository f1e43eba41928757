"""Envelope comparison, exponent fitting, and the partial-sum figure.

An envelope is a positive reference curve; `envelope_ratio` measures how
far a summatory series gets toward it, and `fit_exponent` regresses the
running maximum of |M| against x on log-log axes to estimate the growth
exponent empirically.  The running maximum is used rather than |M|
itself because partial sums oscillate through zero, where log|M| is
undefined; the running maximum is the natural discrepancy statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import build_real_character
from .errors import ConfigError, FitError, RangeError
from .rules import character_rule
from .sieve import as_int, as_real, as_schedule
from .summatory import PartialSumSeries, direct_summatory

DEFAULT_X_MIN = 10**3

ENVELOPE_KINDS = ("power", "theorem1", "mobius")


@dataclass(frozen=True)
class EnvelopeSpec:
    """A positive reference curve for partial-sum magnitudes.

    kind "power":    scale * x^alpha
    kind "theorem1": scale * x^(1/k) / exp(lam * (log x)^(1/4))
    kind "mobius":   scale * x / exp(c * sqrt(log x))
    """

    kind: str
    alpha: float | None = None
    k: int | None = None
    lam: float | None = None
    c: float | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ENVELOPE_KINDS:
            raise ConfigError(f"unknown envelope kind {self.kind!r}")
        if as_real(self.scale, "envelope scale", ConfigError) <= 0:
            raise ConfigError("envelope scale must be positive")
        needed = {"power": ("alpha",), "theorem1": ("k", "lam"), "mobius": ("c",)}[self.kind]
        for name in needed:
            # k is kept as the int it reads as; a real keeps its own type,
            # so an int constant is written back as one
            v = getattr(self, name)
            if name == "k" and v is not None:
                v = as_int(v, "envelope k", ConfigError)
                object.__setattr__(self, "k", v)
            elif v is not None:
                as_real(v, f"envelope {name}", ConfigError)
            if v is None or v <= 0:
                raise ConfigError(f"envelope kind {self.kind!r} needs positive {name}")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "power":
            return self.scale * x**self.alpha
        if self.kind == "theorem1":
            return self.scale * x ** (1 / self.k) / np.exp(self.lam * np.log(x) ** 0.25)
        return self.scale * x / np.exp(self.c * np.sqrt(np.log(x)))

    def describe(self) -> str:
        if self.kind == "power":
            return f"{self.scale:g}*x^{self.alpha:g}"
        if self.kind == "theorem1":
            return f"{self.scale:g}*x^(1/{self.k})/exp({self.lam:g}(log x)^0.25)"
        return f"{self.scale:g}*x/exp({self.c:g}sqrt(log x))"


def power_envelope(alpha: float, scale: float = 1.0) -> EnvelopeSpec:
    return EnvelopeSpec(kind="power", alpha=alpha, scale=scale)


def envelope_ratio(
    series: PartialSumSeries, envelope: EnvelopeSpec, x_min: int = DEFAULT_X_MIN
) -> tuple[float, int]:
    """Max over checkpoints x >= x_min of |M(x)| / envelope(x), with argmax."""
    x_min = as_int(x_min, "x_min")
    xs = series.xs
    mask = xs >= x_min
    if not mask.any():
        raise RangeError(f"no checkpoints at or above x_min={x_min}")
    xs = xs[mask]
    ms = np.abs(series.sums[mask]).astype(np.float64)
    ratios = ms / envelope.value(xs)
    i = int(np.argmax(ratios))
    return float(ratios[i]), int(xs[i])


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(running max |M|) against log x."""

    slope: float
    intercept: float
    x_min: int
    residual: float  # RMS residual of the regression
    points: int


def fit_exponent(series: PartialSumSeries, x_min: int = DEFAULT_X_MIN) -> ExponentFit:
    """Fit the growth exponent of a series' running |M| maximum.

    Raises FitError with fewer than 10 usable checkpoints above x_min or
    when the running maximum is identically zero there, and RangeError
    when x_min is not an integer.
    """
    x_min = as_int(x_min, "x_min")
    xs = series.xs
    mask = (xs >= x_min) & (series.abs_max > 0)
    n = int(mask.sum())
    if n < 10:
        raise FitError(f"need >= 10 nonzero checkpoints above x_min={x_min}, have {n}")
    lx = np.log(xs[mask].astype(np.float64))
    ly = np.log(series.abs_max[mask].astype(np.float64))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return ExponentFit(
        slope=float(slope),
        intercept=float(intercept),
        x_min=x_min,
        residual=float(np.sqrt(np.mean(resid**2))),
        points=n,
    )


def synthetic_power_series(beta: float, limit: int, schedule: list[int]) -> PartialSumSeries:
    """A series with M(x) = round(x^beta), for calibrating the fitter."""
    xs = as_schedule(schedule, 1, as_int(limit, "limit", minimum=1))
    cps = [(x, round(x**beta)) for x in xs]
    running = []
    best = 0
    for x, m in cps:
        best = max(best, abs(m))
        running.append((x, best))
    return PartialSumSeries(label=f"x^{beta:g}", checkpoints=cps, running_abs_max=running)


def figure1(
    limit: int,
    csv_path,
    svg_path,
    modulus: int = 3,
    schedule: list[int] | None = None,
    threads: int = 1,
) -> PartialSumSeries:
    """Partial sums of the squarefree-restricted character against +-x^(1/4).

    Writes a CSV of (x, M, -x^(1/4), +x^(1/4)) on the checkpoint schedule
    and an SVG plot (log-x, linear-y) with exactly three polylines: the
    sum and the two dashed envelope branches.
    """
    limit = as_int(limit, "limit", minimum=10**3)
    from .reporting import write_csv, write_polyline_svg

    chi = build_real_character(modulus)
    rule = character_rule(chi, k=2)
    series = direct_summatory(rule, limit, schedule=schedule, threads=threads)
    xs = series.xs
    env = xs.astype(np.float64) ** 0.25
    write_csv(
        csv_path,
        ["x", "M", "env_lo", "env_hi"],
        [
            (int(x), int(m), float(-e), float(e))
            for x, m, e in zip(xs, series.sums, env)
        ],
    )
    lx = [math.log10(float(x)) for x in xs]
    write_polyline_svg(
        svg_path,
        lx,
        [
            (f"M_{rule.label}", [float(m) for m in series.sums]),
            ("envelope+", list(env)),
            ("envelope-", list(-env)),
        ],
        title=f"partial sums of {rule.label} vs +-x^0.25, x <= {limit:g}",
    )
    return series
