"""Walkthrough: an optical recipe for a weighted ring cluster.

Reduce the multi-mode squeezing transformation to single-mode squeezers
sandwiched between interferometers, and verify the interferometer against
the canonical family parameterized by a real orthogonal seed.
"""

import numpy as np

from clustersqueeze import (
    ClusterPlan,
    bloch_messiah,
    bogoliubov_from_interaction,
    canonical_cluster_interferometer,
    cluster_condition_residual,
)

np.set_printoptions(precision=4, suppress=True)

n = 5
A = np.zeros((n, n))
for i in range(n):
    A[i, (i + 1) % n] = A[(i + 1) % n, i] = 0.8
theta = np.zeros(n)
z = 1.2

cluster = ClusterPlan.of(A, theta)
zm = cluster.interaction("faithful", z)
factors = bloch_messiah(zm)  # read off the plan that built zm, at its z

print(f"weighted {n}-ring, faithful gauge, z = {z}")
print("squeezer strengths:", factors.D)
print("per-mode squeezing (dB):", factors.decibels)

X, Y = factors.reconstruct()
pair = bogoliubov_from_interaction(zm)
print("reconstruction residual X:", np.max(np.abs(X - pair.X)))
print("reconstruction residual Y:", np.max(np.abs(Y - pair.Y)))
print(
    "structure factor from the interferometer alone:",
    np.max(np.abs(1j * factors.V @ factors.V.T - zm.U)),
)

# the reduced interferometer is one member of the canonical family
print(
    "cluster condition residual of V:",
    cluster_condition_residual(factors.V, cluster),
)
rng = np.random.default_rng(0)
o, _ = np.linalg.qr(rng.normal(size=(n, n)))
V_seeded = canonical_cluster_interferometer(cluster, o)
print(
    "seeded canonical V gives the same structure factor:",
    np.max(np.abs(1j * V_seeded @ V_seeded.T - zm.U)),
)
