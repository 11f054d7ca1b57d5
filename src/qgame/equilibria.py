"""Nash verification on the strategy grid and the dilemma report.

A profile is declared a (weak) equilibrium when no unilateral deviation on
the sampled strategy grid gains more than numerical noise: min_gap >= -1e-9.
The grid covers theta in [0, pi] and phi in [0, pi/2] with endpoints
included, so the reference profile itself is always sampled and min_gap is
never positive at a true equilibrium.

The grid scan is vectorized: each player's deviations go through the batched
matrix-path kernel (quantize.payoffs_matrix_path_batch) in chunks of at most
SCAN_CHUNK deviations, which bounds the scan's working memory whatever the
grid size.  The reference payoffs come from the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .games import Bimatrix, builtin_cg, builtin_pd, payoffs_at, pure_nash_equilibria
from .quantize import (
    COOPERATE,
    DEFECT,
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
# deviations per kernel call in the grid scan
SCAN_CHUNK = 512

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
    move_a, move_b = profile
    if fixed_player == "B":
        ref = payoffs_matrix_path(cfg, move_a, move_b)[0]
        alt = payoffs_matrix_path(cfg, deviant, move_b)[0]
    elif fixed_player == "A":
        ref = payoffs_matrix_path(cfg, move_a, move_b)[1]
        alt = payoffs_matrix_path(cfg, move_a, deviant)[1]
    else:
        raise ValueError(f"fixed_player must be 'A' or 'B', got {fixed_player!r}")
    return DeviationGap(gap=ref - alt, deviant=deviant)


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


def verify_profile_nash(cfg: QuantumGameConfig, profile: Profile,
                        grid: tuple[int, int] = DEFAULT_GRID) -> EquilibriumVerdict:
    """Scan both players' unilateral deviations over the strategy grid.

    The worst deviation is the first strict minimum of the gap in scan
    order: player A then B, theta-major, phi-minor.
    """
    n_theta, n_phi = grid
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid must be at least 2x2, got {grid}")
    thetas, phis = (axis.ravel() for axis in np.meshgrid(
        np.linspace(0.0, math.pi, n_theta), np.linspace(0.0, math.pi / 2, n_phi),
        indexing="ij"))

    move_a, move_b = profile
    ref = payoffs_matrix_path(cfg, move_a, move_b)

    min_gap = math.inf
    worst_player = "A"
    worst_index = 0
    for player in ("A", "B"):
        for lo in range(0, thetas.size, SCAN_CHUNK):
            th, ph = thetas[lo:lo + SCAN_CHUNK], phis[lo:lo + SCAN_CHUNK]
            if player == "A":
                gaps = ref[0] - payoffs_matrix_path_batch(cfg, th, ph, move_b.theta,
                                                          move_b.phi)[0]
            else:
                gaps = ref[1] - payoffs_matrix_path_batch(cfg, move_a.theta, move_a.phi,
                                                          th, ph)[1]
            i = int(np.argmin(gaps))
            if gaps[i] < min_gap:
                min_gap = float(gaps[i])
                worst_player = player
                worst_index = lo + i
    return EquilibriumVerdict(
        is_equilibrium=bool(min_gap >= -GAP_TOLERANCE),
        min_gap=min_gap,
        worst_player=worst_player,
        worst_deviation=StrategyParams(float(thetas[worst_index]), float(phis[worst_index])),
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


def _strictly_beats_classical_moves(cfg: QuantumGameConfig, profile: Profile,
                                    ref: tuple[float, float]) -> bool:
    """True when every unilateral switch to a plain classical move loses.

    ref holds the profile's payoffs; the four switches (A to C, A to D, B to
    C, B to D) are one kernel call.
    """
    (move_a, move_b), c, d = profile, COOPERATE, DEFECT
    pay_a, pay_b = payoffs_matrix_path_batch(
        cfg,
        [c.theta, d.theta, move_a.theta, move_a.theta],
        [c.phi, d.phi, move_a.phi, move_a.phi],
        [move_b.theta, move_b.theta, c.theta, d.theta],
        [move_b.phi, move_b.phi, c.phi, d.phi],
    )
    gaps = np.concatenate([ref[0] - pay_a[:2], ref[1] - pay_b[2:]])
    return bool(np.all(gaps > GAP_TOLERANCE))


def dilemma_report(game_tag: str, p: float, delta: float = math.pi / 2,
                   grid: tuple[int, int] = DEFAULT_GRID) -> DilemmaReport:
    """Full verdict for the all-quantum profile of a builtin game.

    The dilemma counts as resolved when (Q,Q) is an equilibrium on the grid,
    deviating to either classical move strictly loses (which requires p > 0),
    and, for the prisoner's dilemma, the (Q,Q) payoff strictly improves on
    the classical equilibrium payoff.
    """
    tag = game_tag.lower()
    if tag == "pd":
        game = builtin_pd()
    elif tag == "cg":
        game = builtin_cg()
    else:
        raise ValueError(f"game must be 'pd' or 'cg', got {game_tag!r}")

    cfg = QuantumGameConfig(game, p, delta)
    profile = (QUANTUM, QUANTUM)
    verdict = verify_profile_nash(cfg, profile, grid)
    qq = verdict.reference_payoffs
    classical = [(prof, payoffs_at(game, prof)) for prof in pure_nash_equilibria(game)]

    resolved = verdict.is_equilibrium and \
        _strictly_beats_classical_moves(cfg, profile, qq)
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
