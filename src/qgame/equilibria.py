"""Nash verification on the strategy grid and the dilemma report.

A profile is declared a (weak) equilibrium when no unilateral deviation on
the sampled strategy grid gains more than numerical noise: min_gap >= -1e-9.
The grid covers theta in [0, pi] and phi in [0, pi/2] with endpoints
included, so the reference profile itself is always sampled and min_gap is
never positive at a true equilibrium.

The scan runs on the payoff's quadratic form: U(theta, phi) = x1 I + x2 diag(i, -i)
+ x3 [[0, 1], [-1, 0]] with x = (cos(theta/2) cos phi, cos(theta/2) sin phi,
sin(theta/2)) real, so with the opponent fixed a player's payoff is x^T Q x.
Both Q come from one matrix-path kernel call and must match the kernel at a
probe and at the player's own move; the kernel re-evaluates the worst
deviation for min_gap.  A miss over 1e-10 raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .games import builtin_cg, builtin_pd, payoffs_at, pure_nash_equilibria
from .quantize import (
    QUANTUM,
    QuantumGameConfig,
    StrategyParams,
    classify_werner,
    payoffs_matrix_path,
    payoffs_matrix_path_batch,
)
from .discord import werner_discord_analytic

__all__ = [
    "GAP_TOLERANCE",
    "DEFAULT_GRID",
    "DeviationGap",
    "EquilibriumVerdict",
    "DilemmaReport",
    "deviation_gap",
    "pd_gap_closed_form",
    "cg_gap_closed_form",
    "verify_profile_nash",
    "dilemma_report",
]

GAP_TOLERANCE = 1e-9
DEFAULT_GRID = (41, 41)
_FORM_TOL = 1e-10
# moves at x = e1, e2, e3, (e1+e2, e1+e3, e2+e3)/sqrt2, then the probe (1,1,1)/sqrt3
_FIT_THETA = np.array([0, 0, math.pi, 0, math.pi / 2, math.pi / 2, 2 * math.atan(0.5 ** 0.5)])
_FIT_PHI = np.array([0, math.pi / 2, 0, math.pi / 4, 0, math.pi / 2, math.pi / 4])

Profile = tuple[StrategyParams, StrategyParams]


class DeviationGap(NamedTuple):
    gap: float
    deviant: StrategyParams


def deviation_gap(cfg: QuantumGameConfig, fixed_player: str, profile: Profile,
                  deviant: StrategyParams) -> DeviationGap:
    """Payoff lost by the non-fixed player when switching to `deviant`.

    fixed_player="B" holds B at the profile and lets A deviate; positive gap
    means the deviation hurts the deviator.
    """
    if fixed_player not in ("A", "B"):
        raise ValueError(f"fixed_player must be 'A' or 'B', got {fixed_player!r}")
    k = "BA".index(fixed_player)
    moves = (deviant, profile[1]) if k == 0 else (profile[0], deviant)
    return DeviationGap(gap=payoffs_matrix_path(cfg, *profile)[k]
                        - payoffs_matrix_path(cfg, *moves)[k], deviant=deviant)


def pd_gap_closed_form(p: float, theta: float, phi: float) -> float:
    """Gap for deviating from the all-quantum profile in the prisoner's
    dilemma: p (3 sin^2(theta/2) + 2 cos^2(theta/2) cos^2 phi) >= 0."""
    return p * (3 * math.sin(theta / 2) ** 2
                + 2 * math.cos(theta / 2) ** 2 * math.cos(phi) ** 2)


def cg_gap_closed_form(p: float, theta: float, phi: float) -> float:
    """Gap for deviating from the all-quantum profile in chicken:
    p (2 + cos^2(theta/2) (3 cos^2 phi - 2)) >= 0."""
    return p * (2 + math.cos(theta / 2) ** 2 * (3 * math.cos(phi) ** 2 - 2))


@dataclass(frozen=True)
class EquilibriumVerdict:
    is_equilibrium: bool
    min_gap: float
    worst_player: str
    worst_deviation: StrategyParams
    grid_spec: tuple[int, int]
    reference_payoffs: tuple[float, float]


def _form(q: np.ndarray, theta, phi) -> np.ndarray:
    """x^T q x over the broadcast shape of the angles; every term is a theta
    factor times a phi factor, so a column of thetas against a row of phis
    costs one float per grid point."""
    half = np.divide(theta, 2)
    c, s, cp, sp = np.cos(half), np.sin(half), np.cos(phi), np.sin(phi)
    return (c * c * (q[0, 0] * cp * cp + 2 * q[0, 1] * cp * sp + q[1, 1] * sp * sp)
            + c * s * (2 * q[0, 2] * cp + 2 * q[1, 2] * sp) + q[2, 2] * s * s)


def _check_form(check: str, want, got) -> None:
    miss = float(np.max(np.abs(np.subtract(want, got))))
    if not miss <= _FORM_TOL:
        raise ValueError(f"quadratic-form {check} check missed the matrix-path kernel "
                         f"by {miss:.3e} (tolerance {_FORM_TOL:g})")


def _fit_forms(cfg: QuantumGameConfig, profile: Profile,
               ref: tuple[float, float]) -> list[np.ndarray]:
    """Each player's Q_ii = P(e_i), Q_ij = P((e_i + e_j)/sqrt2) - (Q_ii + Q_jj)/2,
    checked against the kernel at the probe and against ref at their own move."""
    (move_a, move_b), rows = profile, np.array([[True], [False]])  # A deviates in row 0
    pay_a, pay_b = payoffs_matrix_path_batch(
        cfg, np.where(rows, _FIT_THETA, move_a.theta), np.where(rows, _FIT_PHI, move_a.phi),
        np.where(rows, move_b.theta, _FIT_THETA), np.where(rows, move_b.phi, _FIT_PHI))
    forms = []
    for own, fitted, want in zip(profile, (pay_a[0], pay_b[1]), ref):
        d = fitted[:3]
        q = fitted[[[0, 3, 4], [3, 1, 5], [4, 5, 2]]] - (d[:, None] + d) / 2 + np.diag(d)
        _check_form("fit", [fitted[6], want],
                    _form(q, [_FIT_THETA[6], own.theta], [_FIT_PHI[6], own.phi]))
        forms.append(q)
    return forms


def verify_profile_nash(cfg: QuantumGameConfig, profile: Profile,
                        grid: tuple[int, int] = DEFAULT_GRID) -> EquilibriumVerdict:
    """Scan both players' unilateral deviations over the strategy grid.

    The worst deviation is the first strict minimum of the gap in scan
    order: player A then B, theta-major, phi-minor, on the players' quadratic
    forms; min_gap is the kernel's gap at the worst deviation.
    """
    n_theta, n_phi = grid
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid must be at least 2x2, got {grid}")
    thetas, phis = np.linspace(0.0, math.pi, n_theta), np.linspace(0.0, math.pi / 2, n_phi)
    ref = payoffs_matrix_path(cfg, *profile)

    # argmin takes the first minimum in C order: player, then theta, then phi
    gaps = np.array([r - _form(q, thetas[:, None], phis)
                     for r, q in zip(ref, _fit_forms(cfg, profile, ref))])
    k, i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    moves = [profile[0].theta, profile[0].phi, profile[1].theta, profile[1].phi]
    moves[2 * k:2 * k + 2] = thetas[i], phis[j]
    min_gap = ref[k] - float(payoffs_matrix_path_batch(cfg, *moves)[k])
    _check_form("worst-deviation", gaps[k, i, j], min_gap)
    return EquilibriumVerdict(
        is_equilibrium=bool(min_gap >= -GAP_TOLERANCE),
        min_gap=min_gap,
        worst_player="AB"[k],
        worst_deviation=StrategyParams(float(thetas[i]), float(phis[j])),
        grid_spec=(n_theta, n_phi),
        reference_payoffs=ref,
    )


@dataclass(frozen=True)
class DilemmaReport:
    game: str
    p: float
    delta: float
    qq_payoffs: tuple[float, float]
    classical_equilibria: list
    verdict: EquilibriumVerdict
    region: str
    discord: float
    dilemma_resolved: bool


def dilemma_report(game_tag: str, p: float, delta: float = math.pi / 2,
                   grid: tuple[int, int] = DEFAULT_GRID) -> DilemmaReport:
    """Full verdict for the all-quantum profile of a builtin game.

    The dilemma counts as resolved when (Q,Q) is an equilibrium on the grid,
    deviating to either classical move strictly loses (which requires p > 0),
    and, for the prisoner's dilemma, the (Q,Q) payoff strictly improves on
    the classical equilibrium payoff.
    """
    tag = game_tag.lower()
    if tag not in ("pd", "cg"):
        raise ValueError(f"game must be 'pd' or 'cg', got {game_tag!r}")
    game = builtin_pd() if tag == "pd" else builtin_cg()

    cfg = QuantumGameConfig(game, p, delta)
    profile = (QUANTUM, QUANTUM)
    verdict = verify_profile_nash(cfg, profile, grid)
    qq = verdict.reference_payoffs
    classical = [(prof, payoffs_at(game, prof)) for prof in pure_nash_equilibria(game)]

    # C and D are the fit moves x = e1 and e3: they pay each player Q_11 and Q_33
    resolved = verdict.is_equilibrium and all(
        qq[k] - q[i, i] > GAP_TOLERANCE
        for k, q in enumerate(_fit_forms(cfg, profile, qq)) for i in (0, 2))
    if resolved and tag == "pd":
        floor = max(pay[0] for _, pay in classical)
        resolved = qq[0] > floor + GAP_TOLERANCE and qq[1] > floor + GAP_TOLERANCE

    return DilemmaReport(
        game=tag,
        p=cfg.p,
        delta=cfg.delta,
        qq_payoffs=qq,
        classical_equilibria=classical,
        verdict=verdict,
        region=classify_werner(cfg.p).region,
        discord=werner_discord_analytic(cfg.p),
        dilemma_resolved=bool(resolved),
    )
