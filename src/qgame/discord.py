"""Quantum discord of two-qubit states.

Total correlations are the mutual information I = S(A) + S(B) - S(AB).
Classical correlations J are what a projective measurement on qubit B can
extract: J = S(A) - min over measurement axes of S(A | outcome).  The
discord D = I - J is the quantum remainder; it can be nonzero even for
separable states.

The axis minimization is a deterministic coarse scan over the Bloch sphere
followed by a shrinking local refinement.  For the noisy Bell states built
by quantize.werner_state the conditional entropy is axis-independent and a
closed form for D is available (werner_discord_analytic); the numeric and
analytic routes are kept separate so that tests can compare them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmat

__all__ = [
    "BlochDirection",
    "DiscordReport",
    "mutual_information",
    "measurement_projectors",
    "conditional_entropy",
    "quantum_discord",
    "werner_discord_analytic",
]

# outcomes rarer than this are dropped from the conditional average
_OUTCOME_CUTOFF = 1e-14

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class BlochDirection(NamedTuple):
    """Measurement axis on the Bloch sphere (polar, azimuthal)."""

    theta: float
    phi: float


@dataclass(frozen=True)
class DiscordReport:
    mutual_info: float
    classical_corr: float
    discord: float
    optimal_axis: BlochDirection


def mutual_information(rho) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits."""
    m = qmat.validate_density_matrix(rho, "two-qubit state")
    return (
        qmat.von_neumann_entropy(qmat.partial_trace(m, "A"))
        + qmat.von_neumann_entropy(qmat.partial_trace(m, "B"))
        - qmat.von_neumann_entropy(m)
    )


def measurement_projectors(axis: BlochDirection) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (I +- n.sigma)/2 onto the spin-up/down states along axis."""
    st, ct = math.sin(axis.theta), math.cos(axis.theta)
    n_dot_sigma = st * math.cos(axis.phi) * _SX + st * math.sin(axis.phi) * _SY + ct * _SZ
    return (_I2 + n_dot_sigma) / 2, (_I2 - n_dot_sigma) / 2


def _reduce_first(mat: np.ndarray) -> np.ndarray:
    # partial trace over qubit B without density-matrix validation; the
    # argument here is a subnormalized measurement branch
    return np.einsum("ikjk->ij", mat.reshape(2, 2, 2, 2))


def conditional_entropy(rho, axis: BlochDirection) -> float:
    """Average entropy of qubit A after measuring qubit B along axis.

    Outcome i occurs with probability Tr[(I x Pi_i) rho]; the surviving state
    of A is Tr_B[(I x Pi_i) rho (I x Pi_i)] / p_i.  Outcomes below the cutoff
    probability contribute zero.
    """
    m = qmat.validate_density_matrix(rho, "two-qubit state")
    total = 0.0
    for proj in measurement_projectors(axis):
        branch = m @ np.kron(_I2, proj)
        p_i = float(np.trace(branch).real)
        if p_i < _OUTCOME_CUTOFF:
            continue
        conditional = _reduce_first(branch) / p_i
        ev = np.clip(np.linalg.eigvalsh(conditional), 0.0, 1.0)
        ev = ev[ev > 1e-15]
        total += p_i * float(-np.sum(ev * np.log2(ev)))
    return total


def quantum_discord(rho, coarse_steps: int = 48,
                    axis_resolution: float = 1e-6) -> DiscordReport:
    """Discord of a two-qubit state under projective measurements on qubit B.

    The minimizing axis is found by an exhaustive coarse_steps x coarse_steps
    scan of the sphere and then a 5x5 shrinking-neighborhood refinement down
    to axis_resolution radians.  Ties prefer smaller polar then azimuthal
    angle, so the result is deterministic.
    """
    m = qmat.validate_density_matrix(rho, "two-qubit state")
    if coarse_steps < 2:
        raise ValueError("coarse_steps must be at least 2")
    s_a = qmat.von_neumann_entropy(qmat.partial_trace(m, "A"))
    total = mutual_information(m)

    best_val = math.inf
    best = BlochDirection(0.0, 0.0)
    for theta in np.linspace(0.0, math.pi, coarse_steps):
        for phi in np.arange(coarse_steps) * (2 * math.pi / coarse_steps):
            val = conditional_entropy(m, BlochDirection(float(theta), float(phi)))
            if val < best_val - 1e-15:
                best_val, best = val, BlochDirection(float(theta), float(phi))

    span_t = math.pi / (coarse_steps - 1)
    span_p = 2 * math.pi / coarse_steps
    while max(span_t, span_p) > axis_resolution:
        for dt in (-span_t, -span_t / 2, 0.0, span_t / 2, span_t):
            for dp in (-span_p, -span_p / 2, 0.0, span_p / 2, span_p):
                axis = BlochDirection(
                    min(max(best.theta + dt, 0.0), math.pi),
                    (best.phi + dp) % (2 * math.pi),
                )
                val = conditional_entropy(m, axis)
                if val < best_val - 1e-15:
                    best_val, best = val, axis
        span_t, span_p = span_t / 2, span_p / 2

    classical = s_a - best_val
    return DiscordReport(
        mutual_info=total,
        classical_corr=classical,
        discord=total - classical,
        optimal_axis=best,
    )


def werner_discord_analytic(p: float) -> float:
    """Closed-form discord of the noisy Bell state with purity p.

    The spectrum is {(1+3p)/4, (1-p)/4 x3}, both marginals are maximally
    mixed, and the post-measurement entropy is axis-independent with binary
    value H2((1+p)/2), giving D = 1 - S(rho) + H2((1+p)/2).
    """
    p = qmat.clamp_to_range(p, 0.0, 1.0, "p")
    top = (1 + 3 * p) / 4
    rest = (1 - p) / 4
    s_state = qmat.shannon_entropy([top, rest, rest, rest])
    h_conditional = qmat.shannon_entropy([(1 + p) / 2, (1 - p) / 2])
    return 1.0 - s_state + h_conditional
