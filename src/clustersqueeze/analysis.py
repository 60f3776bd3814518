"""Inverse direction: recover the cluster behind a squeezing interaction.

The structure factor U of an interaction matrix determines a whole class of
clusters, one for each phase vector Theta that keeps U + i e^{-2i Theta}
non-singular.  Writing W = e^{i Theta} U e^{i Theta}, the adjacency matrix is

    A = -i (W + i 1)^{-1} (W - i 1),

which is real symmetric exactly when U is symmetric unitary.

Equal phases c regularize every symmetric unitary in closed form: with
alpha = :func:`~clustersqueeze.matfun.regularizing_angle` (U) and
c = alpha / 2 + pi / 4, W = e^{2ic} U = i e^{i alpha} U and
sigma_min(W + i) = sigma_min(e^{i alpha} U + 1) >= 2 sin(pi / 4N).

The cluster recovered at the equal phases is also the plan that
:func:`~clustersqueeze.blochmessiah.bloch_messiah` reads its factors off
when only Z is given: its canonical interferometer W has U = i W W^T.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularPhasePoint
from .graphs import phase_vector
from .matfun import as_complex_matrix, cayley_real, regularizing_angle
from .synthesis import ClusterPlan, CovarianceReport, InteractionMatrix, covariance_closed_form
from .tolerances import PHASE_ACCEPT, REGULAR_MIN


class ClusterRecovery(NamedTuple):
    """Cluster recovered from an interaction matrix at one phase choice.

    ``margin`` is sigma_min at the chosen phases, ``input_margin`` at the
    supplied ones, which ``phases_replaced`` says the chosen ones replaced.
    """

    theta: np.ndarray
    adjacency: np.ndarray
    covariance: CovarianceReport
    margin: float
    input_margin: float
    phases_replaced: bool


def _rotated(U: np.ndarray, theta: np.ndarray) -> np.ndarray:
    ph = np.exp(1j * theta)
    return ph[:, None] * U * ph[None, :]


def regularity_margin(U, theta) -> float:
    """sigma_min of U + i e^{-2 i Theta}; zero marks a singular phase point."""
    u = as_complex_matrix(U)
    th = phase_vector(theta, u.shape[0])
    w = _rotated(u, th)
    return float(np.linalg.svd(w + 1j * np.eye(u.shape[0]), compute_uv=False)[-1])


def _regular(u: np.ndarray, theta: np.ndarray, why: str) -> float:
    """sigma_min at Theta, which must reach ``REGULAR_MIN``; ``why`` ends the error."""
    margin = regularity_margin(u, theta)
    if margin < REGULAR_MIN:
        raise SingularPhasePoint(f"sigma_min = {margin:.3e} below {REGULAR_MIN:.1e}{why}")
    return margin


def _equal_phases(u: np.ndarray) -> np.ndarray:
    """The equal phases c = alpha / 2 + pi / 4 of the module docstring."""
    return phase_vector(np.full(u.shape[0], regularizing_angle(u) / 2.0 + np.pi / 4.0))


def _recovered_plan(u: np.ndarray, theta: np.ndarray) -> ClusterPlan:
    """Plan of the cluster U encodes at regular phases, from cayley_real's exactly symmetric A."""
    return ClusterPlan(cayley_real(_rotated(u, theta)), theta)


def adjacency_from_unitary(U, theta) -> np.ndarray:
    """Adjacency matrix of the cluster a symmetric unitary belongs to.

    Raises :class:`SingularPhasePoint` when the supplied phases leave the
    inverse ill-defined (use :func:`find_regular_phases`), and
    :class:`NonRealResult` when the recovered matrix carries an imaginary
    residual above tolerance, which signals that U was not symmetric unitary
    to sufficient accuracy.
    """
    u = as_complex_matrix(U)
    th = phase_vector(theta, u.shape[0])
    _regular(u, th, "; these phases do not regularize the inverse")
    return _recovered_plan(u, th).A


def find_regular_phases(U) -> tuple[np.ndarray, float]:
    """Equal phases c = alpha / 2 + pi / 4 that regularize U, with their
    sigma_min, from one ``eigvalsh`` and one SVD (see the module docstring);
    a sigma_min below ``REGULAR_MIN`` means U is not symmetric unitary, and
    raises :class:`SingularPhasePoint`."""
    u = as_complex_matrix(U)
    theta = _equal_phases(u)
    return theta, _regular(u, theta, " at the regularizing angle; input is not a valid symmetric unitary")


def analyze_interaction(zm: InteractionMatrix, theta=None) -> ClusterRecovery:
    """Recover the cluster approximated by a squeezing interaction.

    Uses the supplied phases (zeros by default) when they regularize the
    structure factor, otherwise those of :func:`find_regular_phases`.  The
    gauge factor only rescales the squeezers, so the recovered adjacency
    depends on U alone; the returned covariance is that of the recovered
    cluster's nullifiers under Z at the record's z.  Every regular phase
    vector defines a valid cluster of the class; no ranking is attempted.
    """
    u = zm.U
    chosen = phase_vector(np.zeros(zm.n) if theta is None else theta, zm.n)
    margin = input_margin = regularity_margin(u, chosen)
    if replaced := input_margin < PHASE_ACCEPT:
        chosen, margin = find_regular_phases(u)
    # Either margin reaches REGULAR_MIN: PHASE_ACCEPT is above it, and
    # find_regular_phases raises below it.  The cluster comes from U, so P,
    # whose P U is Z's symmetric part, is compatible with it by construction.
    cluster = _recovered_plan(u, chosen)
    report = covariance_closed_form(cluster, zm)
    return ClusterRecovery(
        theta=cluster.theta,
        adjacency=cluster.A,
        covariance=report,
        margin=margin,
        input_margin=input_margin,
        phases_replaced=replaced,
    )
