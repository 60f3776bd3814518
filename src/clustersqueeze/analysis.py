"""Inverse direction: recover the cluster behind a squeezing interaction.

The structure factor U of an interaction matrix determines a whole class of
clusters, one for each phase vector Theta that keeps U + i e^{-2i Theta}
non-singular.  Writing W = e^{i Theta} U e^{i Theta}, the adjacency matrix is

    A = -i (W + i 1)^{-1} (W - i 1),

which is real symmetric exactly when U is symmetric unitary.  Equivalently
W = e^{i K} with K real symmetric and A = -cos(K) / (1 + sin(K)).

A phase vector that regularizes any symmetric unitary always exists; the
search here is deterministic so repeated runs give identical output.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    NonRealResult,
    NotSymmetric,
    SearchExhausted,
    SingularPhasePoint,
)
from .graphs import phase_vector
from .matfun import (
    _spectral,
    as_complex_matrix,
    max_abs,
    realness_defect,
    symmetric_unitary_angles,
    symmetry_defect,
)
from .synthesis import (
    CovarianceReport,
    InteractionMatrix,
    covariance_closed_form,
    require_compatible_gauge,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

#: Seed of the pseudo-random tail of the phase-search schedule.
DEFAULT_PHASE_SEED = 12345


class ClusterRecovery(NamedTuple):
    """Cluster recovered from an interaction matrix at one phase choice.

    ``margin`` is sigma_min at the chosen phases, ``input_margin`` at the
    supplied ones (None when no phases were supplied).
    """

    theta: np.ndarray
    adjacency: np.ndarray
    covariance: CovarianceReport
    margin: float
    input_margin: float | None


def _rotated(U: np.ndarray, theta: np.ndarray) -> np.ndarray:
    ph = np.exp(1j * theta)
    return ph[:, None] * U * ph[None, :]


def regularity_margin(U, theta) -> float:
    """sigma_min of U + i e^{-2 i Theta}; zero marks a singular phase point."""
    u = as_complex_matrix(U)
    th = phase_vector(theta, u.shape[0])
    w = _rotated(u, th)
    return float(np.linalg.svd(w + 1j * np.eye(u.shape[0]), compute_uv=False)[-1])


def adjacency_from_unitary(
    U, theta, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Adjacency matrix of the cluster a symmetric unitary belongs to.

    Raises :class:`SingularPhasePoint` when the supplied phases leave the
    inverse ill-defined (use :func:`find_regular_phases`), and
    :class:`NonRealResult` when the recovered matrix carries an imaginary
    residual above tolerance, which signals that U was not symmetric unitary
    to sufficient accuracy.
    """
    u = as_complex_matrix(U)
    th = phase_vector(theta, u.shape[0])
    eye = np.eye(u.shape[0])
    w = _rotated(u, th)
    sigma_min = float(np.linalg.svd(w + 1j * eye, compute_uv=False)[-1])
    if sigma_min < tol.regular_min:
        raise SingularPhasePoint(
            f"sigma_min = {sigma_min:.3e} below {tol.regular_min:.1e}; "
            "these phases do not regularize the inverse"
        )
    a = -1j * np.linalg.solve(w + 1j * eye, w - 1j * eye)
    defect = realness_defect(a)
    if defect > tol.realness * max(1.0, max_abs(a)):
        raise NonRealResult(
            f"imaginary residual {defect:.3e}; input was not symmetric "
            "unitary to sufficient accuracy"
        )
    return (a.real + a.real.T) / 2.0


def _phase_schedule(n: int, seed: int) -> Iterator[np.ndarray]:
    """Deterministic candidates: zero, 16 uniform global angles, 64 random."""
    yield np.zeros(n)
    for k in range(1, 17):
        yield np.full(n, np.pi * k / 16.0)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        yield rng.uniform(-np.pi, np.pi, n)


def find_regular_phases(
    U,
    seed: int = DEFAULT_PHASE_SEED,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """First phase vector of the deterministic schedule that regularizes U.

    Accepts the first candidate with sigma_min above the acceptance
    threshold; if none qualifies the best candidate above the floor is
    returned, otherwise :class:`SearchExhausted` is raised (unreachable for
    a numerically valid symmetric unitary).
    """
    u = as_complex_matrix(U)
    n = u.shape[0]
    best_theta: np.ndarray | None = None
    best_margin = -1.0
    for candidate in _phase_schedule(n, seed):
        margin = regularity_margin(u, candidate)
        if margin >= tol.phase_accept:
            return phase_vector(candidate)
        if margin > best_margin:
            best_margin = margin
            best_theta = candidate
    if best_theta is not None and best_margin >= tol.phase_floor:
        return phase_vector(best_theta)
    raise SearchExhausted(
        f"no candidate reached sigma_min {tol.phase_floor:.1e} "
        f"(best {best_margin:.3e}); input is not a valid symmetric unitary"
    )


def k_matrix_form(U, theta, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Real symmetric angle matrix K with e^{i K} = e^{i Theta} U e^{i Theta}.

    Eigen-angles are on the principal branch (-pi, pi].
    """
    u = as_complex_matrix(U)
    th = phase_vector(theta, u.shape[0])
    q, angles = symmetric_unitary_angles(_rotated(u, th), tol)
    return _spectral(q, angles)


def adjacency_from_k(K, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Adjacency matrix -cos(K) (1 + sin(K))^{-1} of an angle matrix."""
    k = np.asarray(K, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("angle matrix must be square")
    if symmetry_defect(k) > tol.rtol * max(1.0, max_abs(k)):
        raise NotSymmetric("angle matrix must be real symmetric")
    w, q = np.linalg.eigh((k + k.T) / 2.0)
    denom = 1.0 + np.sin(w)
    if float(np.min(np.abs(denom))) < tol.regular_min:
        raise SingularPhasePoint(
            "an eigen-angle of K sits at -pi/2, where the inverse relation "
            "is singular"
        )
    return _spectral(q, -np.cos(w) / denom)


def analyze_interaction(
    zm: InteractionMatrix,
    theta=None,
    z: float = 1.0,
    seed: int = DEFAULT_PHASE_SEED,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ClusterRecovery:
    """Recover the cluster approximated by a squeezing interaction.

    Uses the supplied phases when they regularize the structure factor,
    otherwise runs the deterministic search.  The gauge factor only rescales
    the squeezers, so the recovered adjacency depends on U alone; the
    returned covariance is that of the recovered cluster's nullifiers under
    Z at scale z.  When several phase vectors are regular each defines a
    valid cluster of the class; the first one found is returned, no ranking
    is attempted.
    """
    u = zm.U
    chosen: np.ndarray | None = None
    input_margin: float | None = None
    if theta is not None:
        th = phase_vector(theta, zm.n)
        input_margin = regularity_margin(u, th)
        if input_margin >= tol.phase_accept:
            chosen, margin = th, input_margin
    if chosen is None:
        chosen = find_regular_phases(u, seed, tol)
        margin = regularity_margin(u, chosen)
    a = adjacency_from_unitary(u, chosen, tol)
    # P came with the interaction, not with the recovered cluster.
    require_compatible_gauge(a, chosen, zm.P, tol)
    report = covariance_closed_form(a, chosen, zm, z, tol)
    return ClusterRecovery(
        theta=chosen,
        adjacency=a,
        covariance=report,
        margin=margin,
        input_margin=input_margin,
    )
