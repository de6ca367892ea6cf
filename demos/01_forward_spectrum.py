#!/usr/bin/env python3
"""Forward direction: spectra and weight matrices of a matrix problem.

Builds the rank-one star projector problem with zero potential, whose
spectrum is known exactly (square roots on half-integers, simple, and on
integers, double), then perturbs the potential and watches the bands
drift. Everything printed here is computed by the generic numerical path
(RK4 integration, determinant scanning, weights from eigenfunction norms).
"""

import numpy as np

from msturm import (
    BoundaryCoefficient,
    PotentialGrid,
    Problem,
    Projector,
    find_eigenvalues,
    spectral_data,
    weyl_matrix,
)

m = 3
star = Problem(PotentialGrid.zeros(m, 1000), Projector.star(m), BoundaryCoefficient.zero(m))

print("zero-potential star problem, first four bands:")
data = spectral_data(star, 4)
for n in range(1, 5):
    lams = [data.entry(n, k).lam for k in range(1, m + 1)]
    print(f"  band {n}: " + "  ".join(f"{v:.6f}" for v in lams))
print("expected: (n - 1/2)^2 simple, n^2 double\n")

t = star.projector.matrix
a11 = data.entry(1, 1).alpha
print("weight matrix at the lowest eigenvalue (should be (2/pi)(1/2)^2 T):")
print(np.round(a11.real, 6))
print(f"relative deviation: {np.linalg.norm(a11 - 2 / np.pi * 0.25 * t, 2):.2e}\n")

print("Weyl matrix between eigenvalues is Hermitian:")
w = weyl_matrix(star, 0.6).m_matrix
print(f"  ||M - M^dag|| at lam = 0.6: {np.linalg.norm(w - w.conj().T, 2):.2e}\n")

print("perturbing the potential with 0.4 sin(x) on the projector range:")
pot = PotentialGrid.from_callable(lambda x: 0.4 * np.sin(x) * t, m, 1000)
perturbed = Problem(pot, star.projector, star.boundary)
for rec in find_eigenvalues(perturbed, 3):
    if rec.slots[0] == 1:
        drift = rec.lam - (rec.band - 0.5) ** 2
        print(f"  band {rec.band}: lambda_n1 = {rec.lam:.6f} (drift {drift:+.6f})")
print("the double integer-band eigenvalues stay put: the bump lives on range(T).")
