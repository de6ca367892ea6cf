#!/usr/bin/env python3
"""Star-graph edge recovery from diagonal weight data.

Three edges joined at one vertex (continuity + Kirchhoff there, Dirichlet
at the loose ends) are equivalent to a matrix problem with diagonal
potential and the rank-one averaging projector. The inverse direction is
edgewise: eigenvalues plus the (i, i) diagonal weight sequence recover
q_i. The matched constant-level comparison star is derived from that same
data; the full-matrix pipeline run against it cross-checks the edge path.
"""

import numpy as np

from msturm import graph_to_matrix, spectral_data
from msturm.graph import (
    StarGraphProblem,
    derive_star_models,
    extract_local_data,
    solve_local_inverse,
    solve_star_matrix,
)

star = StarGraphProblem.from_callables(
    [lambda x: 0.3 * np.sin(x), lambda x: 0.0, lambda x: 0.0], 1000
)
problem = graph_to_matrix(star)
print("matrix form: diagonal Q, H = 0, projector entries 1/m\n")

data = spectral_data(problem, 15)
print("band 1 eigenvalues:", ", ".join(f"{v:.5f}" for v in data.lam[0]))

locals_ = [extract_local_data(data, i) for i in (1, 2)]
model_set = derive_star_models(locals_)
print("derived comparison levels c_j:", np.round(model_set.c, 5),
      " (ideal: 2/pi * [0.3, 0, 0])\n")

for i in (1, 2):
    res = solve_local_inverse(i, locals_[i - 1], model_set.edge_model(i))
    true = 0.3 * np.sin(res.x) if i == 1 else np.zeros_like(res.x)
    err = np.sqrt(np.trapezoid((res.q - true) ** 2, res.x) / np.pi)
    print(f"edge {i}: rms recovery error {err:.2e}")

matrix = solve_star_matrix(data, model_set)
edge1 = solve_local_inverse(1, locals_[0], model_set.edge_model(1))
q11 = np.real(matrix.problem.potential.samples[:, 0, 0])
print(f"\nscalar path vs full-matrix diagonal, edge 1: sup diff {np.max(np.abs(q11 - edge1.q)):.1e}")
