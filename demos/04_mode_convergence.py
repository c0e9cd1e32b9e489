"""Convergence and internal consistency of the mode-basis determinant.

The Fourier modes of the continuous kernels are Cauchy matrices in
closed form; sampling the kernels on a circle and Fourier-transforming
must reproduce them to machine precision.  The truncated determinant
then converges superexponentially in the truncation order N, and the
2N x 2N product form det(I - A D) agrees with the 4N x 4N block form.
"""

import numpy as np

from besseltau import (
    ModeMatrices,
    MonodromyParams,
    SeriesTruncation,
    fredholm_det,
    kernel_a,
    kernel_d,
    mode_matrix_a,
    mode_matrix_d,
    modes_by_quadrature,
)
from besseltau.nekrasov import complex_fsum, tau_series_terms

params = MonodromyParams.from_nu(0.37, 0.11)
t = 0.05

print("closed-form modes versus quadrature extraction (N = 6)")
quad_a = modes_by_quadrature(lambda zp, z: kernel_a(params, zp, z), 6, 1.0, "a")
quad_d = modes_by_quadrature(lambda zp, z: kernel_d(params, t, zp, z), 6, 1.0, "d")
print(f"  max |A_quad - A_closed| = "
      f"{np.max(np.abs(quad_a - mode_matrix_a(params, 6))):.3e}")
print(f"  max |D_quad - D_closed| = "
      f"{np.max(np.abs(quad_d - mode_matrix_d(params, t, 6))):.3e}")

print()
print(f"determinant refinement at t = {t}")
print(f"{'N':>4} {'det(I - A D)':>36} {'change':>12} {'block form diff':>16}")
prev = None
for n in (2, 4, 6, 8, 10, 12):
    modes = ModeMatrices.build(params, t, n)
    det = fredholm_det(modes)
    # the same determinant from the 4N x 4N block form [[I, -A], [-D, I]]
    eye = np.eye(2 * n)
    block = np.linalg.det(np.block([[eye, -modes.a], [-modes.d, eye]]))
    change = "" if prev is None else f"{abs(det - prev):12.3e}"
    print(f"{n:4d} {det.real:18.15f} {det.imag:+17.15f}j {change:>12} "
          f"{abs(det - block):16.3e}")
    prev = det

print()
print("series refinement (Maya expansion, charge cutoff 2)")
print(f"{'W':>4} {'partial sum':>36} {'change':>12}")
# partial sums of one W = 8 table: the terms of weight <= w are the W = w series
terms = [(w, c * complex(t) ** e) for (_, w, e, c) in tau_series_terms(params, SeriesTruncation(8, 2))]
prev = None
for w in range(9):
    val = complex_fsum(v for k, v in terms if k <= w)
    change = "" if prev is None else f"{abs(val - prev):12.3e}"
    print(f"{w:4d} {val.real:18.15f} {val.imag:+17.15f}j {change:>12}")
    prev = val
print()
print(f"determinant minus series: {abs(fredholm_det(ModeMatrices.build(params, t, 12)) - prev):.3e}")
