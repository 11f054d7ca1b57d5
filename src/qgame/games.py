"""Classical 2x2 bimatrix games and their equilibrium structure.

Move 0 is "cooperate", move 1 is "defect".  Entry [i, j] of each payoff table
is the payoff when the row player picks i and the column player picks j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "MOVE_LABELS",
    "PureProfile",
    "Bimatrix",
    "builtin_pd",
    "builtin_cg",
    "payoffs_at",
    "pure_nash_equilibria",
    "dominant_strategy",
    "pareto_optimal_profiles",
    "parse_game_text",
    "load_game",
]

MOVE_LABELS = ("C", "D")


class PureProfile(NamedTuple):
    row: int
    col: int

    def label(self) -> str:
        return MOVE_LABELS[self.row] + MOVE_LABELS[self.col]


@dataclass
class Bimatrix:
    """Payoff tables for the row player (a) and column player (b)."""

    payoff_a: np.ndarray
    payoff_b: np.ndarray
    name: str = field(default="custom")

    def __post_init__(self):
        self.payoff_a = _as_table(self.payoff_a, "payoff_a")
        self.payoff_b = _as_table(self.payoff_b, "payoff_b")


def _as_table(values, name: str) -> np.ndarray:
    t = np.asarray(values, dtype=float)
    if t.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} has non-finite entries")
    return t


def builtin_pd() -> Bimatrix:
    """Prisoner's dilemma: defection dominates, the unique equilibrium (D,D)
    is Pareto-dominated by (C,C)."""
    return Bimatrix([[3, 0], [5, 1]], [[3, 5], [0, 1]], name="pd")


def builtin_cg() -> Bimatrix:
    """Chicken: two asymmetric pure equilibria, and the mutually best
    symmetric outcome (C,C) is not one of them."""
    return Bimatrix([[3, 1], [4, 0]], [[3, 4], [1, 0]], name="cg")


def payoffs_at(game: Bimatrix, profile: PureProfile) -> tuple[float, float]:
    r, c = profile
    return float(game.payoff_a[r, c]), float(game.payoff_b[r, c])


def pure_nash_equilibria(game: Bimatrix) -> list[PureProfile]:
    """All pure profiles where no unilateral deviation gains (weak)."""
    out = []
    for r in (0, 1):
        for c in (0, 1):
            row_ok = game.payoff_a[r, c] >= game.payoff_a[1 - r, c]
            col_ok = game.payoff_b[r, c] >= game.payoff_b[r, 1 - c]
            if row_ok and col_ok:
                out.append(PureProfile(r, c))
    return out


def dominant_strategy(game: Bimatrix, player: str) -> int | None:
    """Weakly dominant move for "A" (row) or "B" (column), strict against at
    least one opposing move; None when neither move qualifies."""
    if player not in ("A", "B"):
        raise ValueError(f"player must be 'A' or 'B', got {player!r}")
    # own[m, o]: the player's payoff for move m against opposing move o
    own = game.payoff_a if player == "A" else game.payoff_b.T
    for m in (0, 1):
        gains = own[m] - own[1 - m]
        if gains.min() >= 0 and gains.max() > 0:
            return m
    return None


def pareto_optimal_profiles(game: Bimatrix) -> list[PureProfile]:
    """Profiles not weakly dominated (with one strict coordinate) by another."""
    profiles = [PureProfile(r, c) for r in (0, 1) for c in (0, 1)]
    out = []
    for p in profiles:
        pa, pb = payoffs_at(game, p)
        beaten = any(
            qa >= pa and qb >= pb and (qa > pa or qb > pb)
            for q in profiles
            if q != p
            for qa, qb in [payoffs_at(game, q)]
        )
        if not beaten:
            out.append(p)
    return out


def parse_game_text(text: str, name: str = "custom") -> Bimatrix:
    """Parse the four-line game format.

    Each data line holds two numbers (row-player payoff, column-player payoff)
    for the profiles CC, CD, DC, DD in that order.  Blank lines and text after
    '#' are ignored.
    """
    entries: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two payoffs, got {raw.strip()!r}")
        try:
            pair = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric payoff in {raw.strip()!r}") from None
        if len(entries) == 4:
            raise ValueError(f"line {lineno}: more than four payoff lines")
        entries.append(pair)
    if len(entries) != 4:
        raise ValueError(f"expected four payoff lines, found {len(entries)}")
    a = [[entries[0][0], entries[1][0]], [entries[2][0], entries[3][0]]]
    b = [[entries[0][1], entries[1][1]], [entries[2][1], entries[3][1]]]
    return Bimatrix(a, b, name=name)


def load_game(path) -> Bimatrix:
    with open(path, encoding="utf-8") as fh:
        return parse_game_text(fh.read(), name=str(path))
