"""Inverse direction: recover the cluster behind a squeezing interaction.

The structure factor U of an interaction matrix determines a whole class of
clusters, one for each phase vector Theta that keeps U + i e^{-2i Theta}
non-singular.  Writing W = e^{i Theta} U e^{i Theta}, the adjacency matrix is

    A = -i (W + i 1)^{-1} (W - i 1),

which is real symmetric exactly when U is symmetric unitary.

A phase vector that regularizes any symmetric unitary always exists; the
search here is deterministic so repeated runs give identical output.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .errors import SearchExhausted, SingularPhasePoint
from .graphs import phase_vector
from .matfun import as_complex_matrix, cayley_real
from .synthesis import (
    ClusterPlan,
    CovarianceReport,
    InteractionMatrix,
    covariance_closed_form,
    validate_gauge,
)
from .tolerances import DEFAULT_TOLERANCES

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
    sigma_min = regularity_margin(u, th)
    if sigma_min < DEFAULT_TOLERANCES.regular_min:
        raise SingularPhasePoint(
            f"sigma_min = {sigma_min:.3e} below {DEFAULT_TOLERANCES.regular_min:.1e}; "
            "these phases do not regularize the inverse"
        )
    return cayley_real(_rotated(u, th))


def _phase_schedule(n: int, seed: int) -> Iterator[np.ndarray]:
    """Deterministic candidates: zero, 16 uniform global angles, 64 random."""
    yield np.zeros(n)
    for k in range(1, 17):
        yield np.full(n, np.pi * k / 16.0)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        yield rng.uniform(-np.pi, np.pi, n)


def find_regular_phases(U, seed: int = DEFAULT_PHASE_SEED) -> tuple[np.ndarray, float]:
    """First phase vector of the deterministic schedule that regularizes U.

    Accepts the first candidate with sigma_min above the acceptance
    threshold; if none qualifies the best candidate above the floor is
    returned, otherwise :class:`SearchExhausted` is raised (unreachable for
    a numerically valid symmetric unitary).  Returns the phases with their
    sigma_min.
    """
    u = as_complex_matrix(U)
    n = u.shape[0]
    best_theta: np.ndarray | None = None
    best_margin = -1.0
    for candidate in _phase_schedule(n, seed):
        margin = regularity_margin(u, candidate)
        if margin >= DEFAULT_TOLERANCES.phase_accept:
            return phase_vector(candidate), margin
        if margin > best_margin:
            best_margin = margin
            best_theta = candidate
    if best_theta is not None and best_margin >= DEFAULT_TOLERANCES.phase_floor:
        return phase_vector(best_theta), best_margin
    raise SearchExhausted(
        f"no candidate reached sigma_min {DEFAULT_TOLERANCES.phase_floor:.1e} "
        f"(best {best_margin:.3e}); input is not a valid symmetric unitary"
    )


def analyze_interaction(
    zm: InteractionMatrix,
    theta=None,
    z: float = 1.0,
    seed: int = DEFAULT_PHASE_SEED,
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
        if input_margin >= DEFAULT_TOLERANCES.phase_accept:
            chosen, margin = th, input_margin
    if chosen is None:
        chosen, margin = find_regular_phases(u, seed)
    # The margin reaches regular_min: phase_accept and the search's floor
    # are both at least that.
    cluster = ClusterPlan.of(cayley_real(_rotated(u, chosen)), chosen)
    # P came with the interaction, not with the recovered cluster.
    validate_gauge(cluster, zm.P)
    report = covariance_closed_form(cluster, zm, z)
    return ClusterRecovery(
        theta=cluster.theta,
        adjacency=cluster.A,
        covariance=report,
        margin=margin,
        input_margin=input_margin,
    )
