"""The tau function against its defining differential equations.

zeta = t d/dt log tau satisfies the sigma-form
(t zeta'')^2 = 4 (zeta')^2 (zeta - t zeta') - 4 zeta', and q = -t zeta'
satisfies the most degenerate Painleve III equation.  Every route
differentiates exactly: the series routes their t-powers term by term,
the Fredholm route the log-determinant by the trace formula
theta log det M = tr(M^{-1} theta M).  Both must drive the residuals to
zero (the truncated series down to its truncation error, the converged
determinant down to rounding), and the change of variables
t = 2^{-12} r^4 turns q into a radial sine-Gordon field u(r) with
u_rr + u_r/r + sin u = 0.

Each route is built once, as a TauRoute, and evaluated at every point.
"""

from besseltau import MonodromyParams, SeriesTruncation, TauRoute

params = MonodromyParams.from_nu(0.37, 0.11)
trunc = SeriesTruncation(weight_cutoff=8, charge_cutoff=3)
maya = TauRoute(params, "maya", trunc=trunc)
fredholm = TauRoute(params, "fredholm", n_modes=12)

print("sigma-form residual |(t z'')^2 - 4 z'^2 (z - t z') + 4 z'|")
print(f"{'t':>6} {'zeta (Maya series)':>26} {'Maya W=8, Q=3':>16} "
      f"{'Fredholm N=12':>17}")
for t in (0.02, 0.05, 0.1, 0.2):
    z = maya.theta_log_tau(t)[0]
    r_series = maya.ode_residual(t)
    r_fredholm = fredholm.ode_residual(t)
    print(f"{t:6.2f} {z.real:13.10f} {z.imag:+12.10f}j {r_series:16.3e} "
          f"{r_fredholm:17.3e}")

print()
print("degenerate Painleve III residual for q = -t zeta'")
for t in (0.02, 0.05, 0.1):
    q, res = maya.painleve_q(t)
    print(f"  t = {t:5.2f}   q = {q.real:+.10f}{q.imag:+.10f}j   residual = {res:.3e}")

print()
print("radial sine-Gordon field u(r), q(2^-12 r^4) = -2^-6 r^2 exp(i u)")
for r in (0.8, 1.2, 1.6):
    u = maya.sine_gordon_map(r)
    res = maya.sine_gordon_residual(r)
    print(f"  r = {r:3.1f}   u = {u.real:+.10f}{u.imag:+.10f}j   "
          f"|u_rr + u_r/r + sin u| = {res:.3e}")
