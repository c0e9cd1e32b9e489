"""Three independent evaluation routes for the same tau function.

The Fredholm determinant of the generalized Bessel kernel (in its
Fourier-mode Cauchy-matrix basis), the sum over pairs of Maya diagrams,
and the charge-graded instanton sum are three very different algorithms
that must produce the same number.  This script evaluates all three
across a t-grid at generic parameters and prints the pairwise spreads
next to each route's internal truncation-error estimate.  Each route
is built once, as a TauRoute, and evaluated at every t.
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
for t in np.geomspace(0.005, 0.2, 6):
    values = {m: route.tau(t) for m, route in routes.items()}
    spread = max(
        abs(a.tau - b.tau) / abs(b.tau)
        for a in values.values()
        for b in values.values()
    )
    est = max(v.est_error for v in values.values())
    f = values["fredholm"].tau
    print(f"{t:6.3f} {f.real:14.11f} {f.imag:+13.11f}j {spread:22.3e} {est:15.3e}")

print()
print("full cross-validation report at t = 0.05")
report = cross_validate(0.05, params, n_modes=12, trunc=trunc)
for pair, diff in report["pairwise_rel_diff"].items():
    print(f"  {pair:<22} {diff:.3e}")
print(f"  rank-one residual (a)  {report['rank_one_residual']['a']:.3e}")
print(f"  rank-one residual (d)  {report['rank_one_residual']['d']:.3e}")
print(f"  quadrature mode diff   {report['quadrature_mode_diff']:.3e}")
print(f"  quasi-periodicity      {report['quasi_periodicity']:.3e}")
for name, value in report["lemma_identities"].items():
    print(f"  {name:<22} {value if isinstance(value, bool) else f'{value:.3e}'}")
