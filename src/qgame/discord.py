"""Quantum discord of two-qubit states.

Total correlations are the mutual information I = S(A) + S(B) - S(AB).
Classical correlations J are what a projective measurement on qubit B can
extract: J = S(A) - min over measurement axes of S(A | outcome).  The
discord D = I - J is the quantum remainder; it can be nonzero even for
separable states.

The axis minimization is a deterministic coarse scan over the Bloch sphere
followed by a shrinking local refinement, on one batched kernel over arrays
of axes: the state is validated once, and each scan level (the coarse grid,
then each 5x5 refinement step) is one kernel call.  conditional_entropy is
the kernel's single-axis case.  For the noisy Bell states built by
quantize.werner_state the conditional entropy is axis-independent and a
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


def _entropies(m: np.ndarray) -> tuple[float, float]:
    """S(A) and I(A:B) = S(A) + S(B) - S(AB) in bits of an already validated
    two-qubit state."""
    if m.shape != (4, 4):
        raise ValueError("two-qubit state must be 4x4")
    r = m.reshape(2, 2, 2, 2)
    s_a, s_b, s_ab = [float(qmat.entropy_bits(np.clip(np.linalg.eigvalsh(a), 0.0, 1.0)))
                      for a in (np.einsum("ikjk->ij", r), np.einsum("kikj->ij", r), m)]
    return s_a, s_a + s_b - s_ab


def mutual_information(rho) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits."""
    return _entropies(qmat.validate_density_matrix(rho, "two-qubit state"))[1]


def _projectors(theta, phi) -> np.ndarray:
    """Projectors (I +- n.sigma)/2 along each axis of the broadcast shape of
    the angles: (..., 2, 2, 2), spin-up first."""
    st = np.sin(theta)
    x, y, z = np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), np.cos(theta))
    n_dot_sigma = np.stack([np.stack([z, x - 1j * y], axis=-1),
                            np.stack([x + 1j * y, -z], axis=-1)], axis=-2)
    return np.stack([_I2 + n_dot_sigma, _I2 - n_dot_sigma], axis=-3) / 2


def measurement_projectors(axis: BlochDirection) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (I +- n.sigma)/2 onto the spin-up/down states along axis."""
    return tuple(_projectors(axis.theta, axis.phi))


def _conditional_entropies(m: np.ndarray, theta, phi) -> np.ndarray:
    """The conditional-entropy kernel: S(A | outcome on B) along every axis of
    the broadcast (theta, phi) shape, for an already validated 4x4 state m.

    Outcome i occurs with probability p_i = Tr[(I x Pi_i) rho] and leaves A in
    Tr_B[(I x Pi_i) rho] / p_i; outcomes below the cutoff contribute zero."""
    # Tr_B[(I x Pi) rho]_ij = sum_kl Pi[k, l] rho[il, jk]
    branch = np.einsum("...kl,iljk->...ij", _projectors(theta, phi), m.reshape(2, 2, 2, 2))
    p = np.trace(branch, axis1=-2, axis2=-1).real
    kept = p >= _OUTCOME_CUTOFF
    ev = np.clip(np.linalg.eigvalsh(branch / np.where(kept, p, 1.0)[..., None, None]),
                 0.0, 1.0)
    return np.sum(np.where(kept, p * qmat.entropy_bits(ev), 0.0), axis=-1)


def conditional_entropy(rho, axis: BlochDirection) -> float:
    """Average entropy of qubit A after measuring qubit B along axis."""
    m = qmat.validate_density_matrix(rho, "two-qubit state")
    return float(_conditional_entropies(m, axis.theta, axis.phi))


def _first_improvement(m, theta, phi, best_val: float, best: BlochDirection):
    # one kernel call over the candidate axes, then the sequential rule in
    # their C order: replace only on a clear improvement
    theta, phi = np.broadcast_arrays(theta, phi)
    vals = _conditional_entropies(m, theta, phi)
    for k, val in enumerate(vals.ravel().tolist()):
        if val < best_val - 1e-15:
            best_val, best = val, BlochDirection(float(theta.flat[k]), float(phi.flat[k]))
    return best_val, best


def quantum_discord(rho, coarse_steps: int = 48,
                    axis_resolution: float = 1e-6) -> DiscordReport:
    """Discord of a two-qubit state under projective measurements on qubit B.

    The minimizing axis comes from an exhaustive coarse_steps x coarse_steps
    (polar x azimuthal) scan of the sphere, then levels of 5x5 patches in the
    plane tangent at the best axis so far, the span halving down to
    axis_resolution radians; patch steps are the same size everywhere, poles
    included.  Ties keep the earlier axis, so the result is deterministic.
    """
    m = qmat.validate_density_matrix(rho, "two-qubit state")
    if coarse_steps < 2:
        raise ValueError("coarse_steps must be at least 2")
    if not (math.isfinite(axis_resolution) and axis_resolution > 0):
        raise ValueError(f"axis_resolution must be positive and finite, got {axis_resolution!r}")
    s_a, total = _entropies(m)

    best_val, best = _first_improvement(
        m, np.linspace(0.0, math.pi, coarse_steps)[:, None],
        np.arange(coarse_steps) * (2 * math.pi / coarse_steps),
        math.inf, BlochDirection(0.0, 0.0))
    span = max(math.pi / (coarse_steps - 1), 2 * math.pi / coarse_steps)
    steps = np.array([-1.0, -0.5, 0.0, 0.5, 1.0]) * span
    while span > axis_resolution:
        # the best axis n and the unit vectors along increasing theta and phi
        st, ct = math.sin(best.theta), math.cos(best.theta)
        sp, cp = math.sin(best.phi), math.cos(best.phi)
        n, e_theta, e_phi = np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st],
                                      [-sp, cp, 0.0]])
        v = n + steps[:, None, None] * e_theta + steps[:, None] * e_phi
        best_val, best = _first_improvement(
            m, np.arctan2(np.hypot(v[..., 0], v[..., 1]), v[..., 2]),
            np.arctan2(v[..., 1], v[..., 0]) % (2 * math.pi), best_val, best)
        span, steps = span / 2, steps / 2

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
