"""Walkthrough: which cluster does a given squeezing interaction prepare?

Starting from an interaction matrix alone, recover the local phases and the
adjacency matrix, and show that rescaling the strength factor leaves the
cluster untouched while the squeezing scale controls how fast the nullifier
variances vanish.
"""

import numpy as np

from clustersqueeze import (
    InteractionMatrix,
    adjacency_from_unitary,
    analyze_interaction,
    find_regular_phases,
    regularity_margin,
    unitary_from_adjacency,
)

np.set_printoptions(precision=6, suppress=True)

# a 3-mode path cluster seen only through its interaction matrix
A_path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
U = unitary_from_adjacency(A_path, np.zeros(3))
Z = 1.7 * U  # strength rescaled on purpose
zm = InteractionMatrix.from_matrix(Z, 1.0)  # planned at z = 1

result = analyze_interaction(zm)
print("recovered phases:", result.theta)
print("recovered adjacency:\n", np.round(result.adjacency, 10))
print("matches the path graph:", np.allclose(result.adjacency, A_path, atol=1e-8))
# at known phases the inverse needs no search
print("inverse at the synthesis phases:", np.allclose(adjacency_from_unitary(zm.U, np.zeros(3)), A_path, atol=1e-8))

for z in (1.0, 2.0, 3.0):
    rep = analyze_interaction(InteractionMatrix.from_matrix(Z, z)).covariance
    print(f"z = {z}: max nullifier variance {rep.max_abs:.6f}")

# --- a case where the zero-phase point is singular --------------------------
Z_awkward = -1j * np.eye(1)
zm_awkward = InteractionMatrix.from_matrix(Z_awkward, 1.0)
print(
    "\nsigma_min at zero phases for Z = -i:",
    regularity_margin(zm_awkward.U, [0.0]),
)
theta, margin = find_regular_phases(zm_awkward.U)
print("phase chosen in closed form:", theta, "sigma_min:", margin)
res = analyze_interaction(zm_awkward)
print("recovered self-loop weight:", res.adjacency[0, 0])
rebuilt = unitary_from_adjacency(res.adjacency, res.theta)
print("forward relation reproduces U:", np.allclose(rebuilt, zm_awkward.U, atol=1e-8))
