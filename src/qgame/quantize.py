"""Quantized 2x2 games on a noisy Bell state.

The players share rho_in = p |Phi><Phi| + (1-p)/4 I, with
|Phi> = (|00> + i|11>)/sqrt(2), apply local unitaries

    U(theta, phi) = [[exp(i phi) cos(theta/2),  sin(theta/2)],
                     [-sin(theta/2),            exp(-i phi) cos(theta/2)]],

and the referee measures in a basis whose entanglement is set by delta:
delta=0 is the product (computational) basis, delta=pi/2 the maximally
entangled one.  Payoffs are expectation values of the game's payoff table
over the four measurement outcomes (ordered 00, 01, 10, 11).

Two independent payoff routes are provided: the matrix path (projector
traces against the evolved state) and closed-form trigonometric
coefficients.  They must agree to 1e-10; tests enforce it.

The matrix path is one batched kernel, payoffs_matrix_path_batch, over
broadcastable arrays of moves; payoffs_matrix_path and outcome_probabilities
are its single-profile case.  The closed form stays scalar and separate: it
is the matrix path's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import Bimatrix
from . import qmat

__all__ = [
    "StrategyParams",
    "QuantumGameConfig",
    "WernerClassification",
    "COOPERATE",
    "DEFECT",
    "QUANTUM",
    "werner_state",
    "strategy_unitary",
    "final_state",
    "basis_projectors",
    "outcome_probabilities",
    "payoffs_matrix_path",
    "payoffs_matrix_path_batch",
    "payoffs_closed_form",
    "payoffs_product_basis",
    "classify_werner",
]

SEPARABLE_BOUND = 1.0 / 3.0
NONLOCAL_BOUND = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class StrategyParams:
    """One player's move: theta in [0, pi], phi in [0, pi/2]."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta",
                           qmat.clamp_to_range(self.theta, 0.0, math.pi, "theta"))
        object.__setattr__(self, "phi",
                           qmat.clamp_to_range(self.phi, 0.0, math.pi / 2, "phi"))


COOPERATE = StrategyParams(0.0, 0.0)
DEFECT = StrategyParams(math.pi, 0.0)
QUANTUM = StrategyParams(0.0, math.pi / 2)


@dataclass(frozen=True)
class QuantumGameConfig:
    """Game table plus shared-state purity p and measurement-basis angle delta."""

    game: Bimatrix
    p: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "p", qmat.clamp_to_range(self.p, 0.0, 1.0, "p"))
        object.__setattr__(self, "delta",
                           qmat.clamp_to_range(self.delta, 0.0, math.pi / 2, "delta"))


def _bell_ket() -> np.ndarray:
    k = np.zeros(4, dtype=complex)
    k[0] = 1 / math.sqrt(2)
    k[3] = 1j / math.sqrt(2)
    return k


def werner_state(p: float) -> np.ndarray:
    """p |Phi><Phi| + (1-p)/4 I on two qubits."""
    p = qmat.clamp_to_range(p, 0.0, 1.0, "p")
    k = _bell_ket()
    rho = p * np.outer(k, k.conj()) + (1 - p) / 4 * np.eye(4)
    return qmat.validate_density_matrix(rho, "shared state")


def _unitaries(theta, phi) -> np.ndarray:
    """U(theta, phi) over the broadcast shape of the angles: (..., 2, 2)."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ph = np.cos(phi) + 1j * np.sin(phi)
    u = np.empty(theta.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = ph * c
    u[..., 0, 1] = s
    u[..., 1, 0] = -s
    u[..., 1, 1] = ph.conj() * c
    return u


def strategy_unitary(move: StrategyParams) -> np.ndarray:
    return _unitaries(move.theta, move.phi)


def _evolve(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    # (Ua x Ub) rho (Ua x Ub)^dagger for every pair in the broadcast stack,
    # checked as density matrices in one batched call
    u = qmat.kron(u_a, u_b)
    return qmat.validate_density_matrices(u @ rho @ qmat.dagger(u),
                                          "final state")


def final_state(rho, move_a: StrategyParams, move_b: StrategyParams) -> np.ndarray:
    """Apply the players' local unitaries: (Ua x Ub) rho (Ua x Ub)^dagger."""
    m = qmat.validate_density_matrix(rho, "input state")
    return _evolve(m, strategy_unitary(move_a), strategy_unitary(move_b))


def basis_projectors(delta: float):
    """Rank-one projectors onto the delta-entangled measurement basis.

    Each basis ket pairs a computational state with its double flip:
      cos(delta/2)|00> + i sin(delta/2)|11>, cos(delta/2)|01> - i sin(delta/2)|10>, ...
    Returned in outcome order (00, 01, 10, 11); they resolve the identity for
    every delta.
    """
    delta = qmat.clamp_to_range(delta, 0.0, math.pi / 2, "delta")
    c, s = math.cos(delta / 2), math.sin(delta / 2)
    kets = np.array([
        [c, 0, 0, 1j * s],
        [0, c, -1j * s, 0],
        [0, -1j * s, c, 0],
        [1j * s, 0, 0, c],
    ])
    return tuple(kets[:, :, None] * kets[:, None, :].conj())


def _outcome_probabilities(cfg: QuantumGameConfig, theta_a, phi_a, theta_b,
                           phi_b) -> np.ndarray:
    """The matrix-path kernel: outcome distributions (..., 4) for broadcastable
    arrays of moves.

    werner_state(cfg.p) is built and checked once, conjugated by every pair
    of strategy unitaries, and the stack of final states is checked in one
    batched call; then the projector traces are checked for imaginary parts
    and the distributions for floor and normalization.
    """
    theta_a = qmat.clamp_to_range(theta_a, 0.0, math.pi, "theta")
    phi_a = qmat.clamp_to_range(phi_a, 0.0, math.pi / 2, "phi")
    theta_b = qmat.clamp_to_range(theta_b, 0.0, math.pi, "theta")
    phi_b = qmat.clamp_to_range(phi_b, 0.0, math.pi / 2, "phi")
    rho = _evolve(werner_state(cfg.p), _unitaries(theta_a, phi_a),
                  _unitaries(theta_b, phi_b))
    # Tr(P_k rho) = sum_ij rho[j, i] P_k[i, j]: one row-times-matrix product
    # per profile, so a profile's value is the same whatever stack it is in
    proj = np.swapaxes(basis_projectors(cfg.delta), -1, -2).reshape(4, 16).T
    raw = (rho.reshape(rho.shape[:-2] + (1, 16)) @ proj)[..., 0, :]
    worst_imag = np.abs(raw.imag).max()
    if worst_imag > 1e-12:
        raise ValueError(f"outcome probability has imaginary part {worst_imag:.3e}")
    return qmat.validate_probabilities(raw.real, floor=-1e-10)


def outcome_probabilities(cfg: QuantumGameConfig, move_a: StrategyParams,
                          move_b: StrategyParams) -> np.ndarray:
    """Measurement distribution over outcomes (00, 01, 10, 11)."""
    return _outcome_probabilities(cfg, move_a.theta, move_a.phi, move_b.theta, move_b.phi)


def payoffs_matrix_path_batch(cfg: QuantumGameConfig, theta_a, phi_a, theta_b,
                              phi_b) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-path payoffs (A's, B's) for broadcastable arrays of moves.

    Player A plays (theta_a, phi_a) and B (theta_b, phi_b); each output has
    the broadcast shape of the four angle arrays.  Angles are range-checked
    like StrategyParams.
    """
    probs = _outcome_probabilities(cfg, theta_a, phi_a, theta_b, phi_b)
    return ((probs * cfg.game.payoff_a.reshape(4)).sum(axis=-1),
            (probs * cfg.game.payoff_b.reshape(4)).sum(axis=-1))


def payoffs_matrix_path(cfg: QuantumGameConfig, move_a: StrategyParams,
                        move_b: StrategyParams) -> tuple[float, float]:
    """Payoffs from explicit state evolution and projector traces."""
    pa, pb = payoffs_matrix_path_batch(cfg, move_a.theta, move_a.phi,
                                       move_b.theta, move_b.phi)
    return float(pa), float(pb)


def _outcome_coefficients(move_a: StrategyParams, move_b: StrategyParams,
                          delta: float) -> np.ndarray:
    """Closed-form outcome weights of the pure Bell component at any delta.

    g holds the weights at delta = pi/2.  Lowering delta mixes each weight
    with its double-flip partner (00<->11, 01<->10) in proportion
    (1 +- sin delta)/2; the four weights sum to 1 for all angles.
    """
    c1, s1 = math.cos(move_a.theta / 2), math.sin(move_a.theta / 2)
    c2, s2 = math.cos(move_b.theta / 2), math.sin(move_b.theta / 2)
    f1, f2 = move_a.phi, move_b.phi
    both = f1 + f2
    g = np.array([
        (math.cos(both) * c1 * c2) ** 2,
        (math.cos(f1) * c1 * s2 - math.sin(f2) * s1 * c2) ** 2,
        (math.sin(f1) * c1 * s2 - math.cos(f2) * s1 * c2) ** 2,
        (math.sin(both) * c1 * c2 + s1 * s2) ** 2,
    ])
    w = math.sin(delta)
    partner = g[[3, 2, 1, 0]]
    return ((1 + w) * g + (1 - w) * partner) / 2


def payoffs_closed_form(cfg: QuantumGameConfig, move_a: StrategyParams,
                        move_b: StrategyParams) -> tuple[float, float]:
    """Payoffs from the trigonometric outcome weights; no matrix algebra.

    Each outcome probability is p * weight + (1-p)/4, the uniform floor
    coming from the unpolarized part of the shared state.
    """
    coeff = _outcome_coefficients(move_a, move_b, cfg.delta)
    probs = cfg.p * coeff + (1 - cfg.p) / 4
    return (float(np.dot(cfg.game.payoff_a.reshape(4), probs)),
            float(np.dot(cfg.game.payoff_b.reshape(4), probs)))


def payoffs_product_basis(cfg: QuantumGameConfig, move_a: StrategyParams,
                          move_b: StrategyParams) -> tuple[float, float]:
    """Specialized payoffs for the product basis (delta = 0).

    Only outcome pairs survive: equal outcomes (00, 11) share one weight and
    unequal outcomes (01, 10) the complementary one.
    """
    if abs(cfg.delta) > 1e-12:
        raise ValueError(f"product-basis payoffs require delta = 0, got {cfg.delta!r}")
    t1, f1 = move_a.theta, move_a.phi
    t2, f2 = move_b.theta, move_b.phi
    c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
    c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
    cross = 0.5 * math.sin(t1) * math.sin(t2) * math.sin(f1 + f2)
    same = c1**2 * c2**2 + s1**2 * s2**2 + cross
    diff = c1**2 * s2**2 + s1**2 * c2**2 - cross
    out = []
    for table in (cfg.game.payoff_a, cfg.game.payoff_b):
        val = cfg.p / 2 * ((table[0, 0] + table[1, 1]) * same
                           + (table[0, 1] + table[1, 0]) * diff)
        out.append(float(val + (1 - cfg.p) / 4 * table.sum()))
    return out[0], out[1]


@dataclass(frozen=True)
class WernerClassification:
    """Entanglement region of the shared state, with boundary markers."""

    region: str
    at_separable_boundary: bool
    at_nonlocal_boundary: bool


def classify_werner(p: float, boundary_tol: float = 1e-12) -> WernerClassification:
    """Region of werner_state(p): separable for p <= 1/3, violating a Bell
    inequality for p > 1/sqrt(2), entangled but local in between.  Boundary
    values belong to the lower region."""
    p = qmat.clamp_to_range(p, 0.0, 1.0, "p")
    if p <= SEPARABLE_BOUND:
        region = "separable"
    elif p <= NONLOCAL_BOUND:
        region = "entangled_local"
    else:
        region = "nonlocal"
    return WernerClassification(
        region=region,
        at_separable_boundary=abs(p - SEPARABLE_BOUND) <= boundary_tol,
        at_nonlocal_boundary=abs(p - NONLOCAL_BOUND) <= boundary_tol,
    )
