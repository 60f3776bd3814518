"""Walkthrough: squeezing transformations for the two-mode EPR cluster.

The EPR graph (one unit edge) has a self-inverse adjacency matrix, so the
structure factor is simply -A and every quantity can be checked by hand.
"""

import numpy as np

from clustersqueeze import (
    ClusterPlan,
    covariance_closed_form,
    covariance_oracle,
    squeezer_spectrum,
)

np.set_printoptions(precision=6, suppress=True)

A = np.array([[0.0, 1.0], [1.0, 0.0]])
theta = np.zeros(2)
z = 1.0
cluster = ClusterPlan.of(A, theta)  # checks (A, theta) once for every call below

print("EPR cluster, z =", z)
print("adjacency:\n", A)

# --- trivial gauge: two equal squeezers -----------------------------------
zm, _ = cluster.interaction("identity")
print("\ninteraction matrix (trivial gauge):\n", zm.Z.real)

report = covariance_closed_form(cluster, zm, z)
print("nullifier covariance:\n", report.C)
print("expected 2 e^{-2z} on the diagonal:", 2 * np.exp(-2 * z))

for mode in squeezer_spectrum(zm, z):
    print(
        f"squeezer: strength {mode.strength:.3f} -> {mode.decibels:.3f} dB"
    )

# --- faithful gauge: covariance proportional to the identity ---------------
zm_faithful, _ = cluster.interaction("faithful", z)
report_faithful = covariance_closed_form(cluster, zm_faithful, z)
print("\nfaithful-gauge covariance:\n", report_faithful.C)
print("expected e^{-2z} identity:", np.exp(-2 * z))

# --- cross-check against the brute-force path ------------------------------
# the oracle leaves out the anti-squeezed half when its overlap with the
# nullifiers is within the rounding budget
brute = covariance_oracle(cluster, zm_faithful, z)
gap = np.max(np.abs(brute.C - report_faithful.C))
print(f"\nclosed form vs brute-force oracle: max gap {gap:.2e}, "
      f"overlap {brute.overlap:.1e}")
