"""Three independent evaluation routes for the same tau function.

The Fredholm determinant of the generalized Bessel kernel (in its
Fourier-mode Cauchy-matrix basis), the sum over pairs of Maya diagrams,
and the charge-graded instanton sum are three very different algorithms
that must produce the same number.  This script evaluates all three
across a t-grid at generic parameters and prints the pairwise spreads
next to each route's internal truncation-error estimate.  Each route
is built once, as a TauRoute, and evaluated at every t.  It ends with
the cross_validate check battery, the rows `besseltau check` prints.
"""

import numpy as np

from besseltau import MonodromyParams, SeriesTruncation, TauRoute, cross_validate

params = MonodromyParams.from_nu(0.37, 0.11)
trunc = SeriesTruncation(weight_cutoff=6, charge_cutoff=2)
routes = {
    m: TauRoute(params, m, n_modes=12, trunc=trunc) for m in ("fredholm", "maya", "nekrasov")
}

print(f"parameters: sigma = {params.sigma}, eta = {params.eta}  (nu = {params.nu})")
print(f"{'t':>6} {'fredholm (N=12)':>28} {'max pairwise rel diff':>22} "
      f"{'max est_error':>15}")
# each route evaluates the whole grid in one pass
ts = np.geomspace(0.005, 0.2, 6)
grids = {m: route.grid(ts)[0] for m, route in routes.items()}
for i, t in enumerate(ts):
    values = {m: grid[i] for m, grid in grids.items()}
    spread = max(
        abs(a.tau - b.tau) / abs(b.tau)
        for a in values.values()
        for b in values.values()
    )
    est = max(v.est_error for v in values.values())
    f = values["fredholm"].tau
    print(f"{t:6.3f} {f.real:14.11f} {f.imag:+13.11f}j {spread:22.3e} {est:15.3e}")

print()
print("cross-validation battery at t = 0.05 (what `besseltau check` prints)")
for name, value, tol in cross_validate(0.05, params, n_modes=12, trunc=trunc):
    print(f"  {name:<30} {value:10.3e}  < {tol:.0e}  {'PASS' if value < tol else 'FAIL'}")
