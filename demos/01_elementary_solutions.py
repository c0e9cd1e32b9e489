"""Degenerate closed-form solutions.

At nu = 1/4 the tau function collapses to an elementary exponential:
eta = 0 gives exp(-4 sqrt(t)) and eta = 1/4 gives exp(+4 sqrt(t)) (both
times the universal prefactor t^{1/16}, which the normalized tau drops).
This script reproduces the two exponentials from the charge-graded dual
series and recovers zeta = 1/16 + 2 sqrt(t) and q = -sqrt(t) from the
growing branch.  Each branch is one TauRoute on the dual series, built
once and evaluated at every t.
"""

import math

from besseltau import MonodromyParams, SeriesTruncation, TauRoute

trunc = SeriesTruncation(weight_cutoff=8, charge_cutoff=4)
decaying = TauRoute(MonodromyParams.from_nu(0.25, 0.0), "nekrasov", trunc=trunc)
growing = TauRoute(MonodromyParams.from_nu(0.25, 0.25), "nekrasov", trunc=trunc)

print("normalized tau at nu = 1/4 versus exp(+-4 sqrt t)")
print(f"{'t':>6} {'series (eta=0)':>22} {'exp(-4 sqrt t)':>22} "
      f"{'series (eta=1/4)':>22} {'exp(+4 sqrt t)':>22}")
for t in (0.01, 0.05, 0.1, 0.2):
    minus = decaying.tau(t).tau
    plus = growing.tau(t).tau
    print(f"{t:6.2f} {minus.real:22.15f} {math.exp(-4 * math.sqrt(t)):22.15f} "
          f"{plus.real:22.15f} {math.exp(4 * math.sqrt(t)):22.15f}")

print()
print("log-derivative and Painleve function on the growing branch")
print(f"{'t':>6} {'zeta':>20} {'1/16 + 2 sqrt t':>20} {'q':>20} {'-sqrt t':>20}")
for t in (0.02, 0.08, 0.18):
    z = growing.theta_log_tau(t)[0]
    q, _ = growing.painleve_q(t)
    print(f"{t:6.2f} {z.real:20.15f} {1 / 16 + 2 * math.sqrt(t):20.15f} "
          f"{q.real:20.15f} {-math.sqrt(t):20.15f}")
