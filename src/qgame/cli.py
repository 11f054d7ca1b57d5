"""Command line front end.

    qgame payoff        both payoff routes for one strategy profile
    qgame discord-curve discord of the shared state as purity p sweeps 0..1
    qgame nash-check    quadratic-form grid verdict for a profile (default all-quantum)
    qgame sweep-p       payoffs, equilibrium gap and discord along p
    qgame classical     pure equilibria / dominance / Pareto set of a game
    qgame report        dilemma-resolution summary for a builtin game

Exit codes: 0 success (and, for nash-check, equilibrium confirmed);
1 usage or input error (and non-equilibrium verdicts); 2 internal
consistency failure such as the two payoff routes disagreeing.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .discord import quantum_discord, werner_discord_analytic
from .equilibria import dilemma_report, verify_profile_nash
from .games import (
    MOVE_LABELS,
    Bimatrix,
    builtin_cg,
    builtin_pd,
    dominant_strategy,
    load_game,
    pareto_optimal_profiles,
    payoffs_at,
    pure_nash_equilibria,
)
from .quantize import (
    QUANTUM,
    QuantumGameConfig,
    StrategyParams,
    classify_werner,
    payoffs_closed_form,
    payoffs_matrix_path,
    werner_state,
)

__all__ = ["main", "entry"]

PAYOFF_ROUTE_TOL = 1e-10
DISCORD_ROUTE_TOL = 1e-6
# not folded into qmat.RANGE_SLACK (1e-9): typed decimals like 3.1415927 overshoot
# pi by 5e-8 and must clamp (test_payoff_accepts_angle_rounding_slack pins it)
_CLI_ANGLE_SLACK = 1e-6


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved here for
    # internal consistency failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    return format(float(value), ".12g")


def _emit(columns, rows, fmt: str, output) -> None:
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(row) for row in rows]
    else:
        widths = [max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
                  for i, col in enumerate(columns)]
        lines = ["  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
                 for row in [list(columns)] + [list(r) for r in rows]]
    data = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _in_range(value: float, lo: float, hi: float, flag: str, degrees: bool,
              angle: bool = True) -> float:
    v = float(value)
    if degrees and angle:
        v = math.radians(v)
    if not math.isfinite(v) or v < lo - _CLI_ANGLE_SLACK or v > hi + _CLI_ANGLE_SLACK:
        lo_s, hi_s = _fmt(lo), _fmt(hi)
        unit = " (radians)" if angle and not degrees else ""
        raise ValueError(f"{flag} must lie in [{lo_s}, {hi_s}]{unit}, got {value}")
    return min(max(v, lo), hi)


def _resolve_game(spec: str) -> Bimatrix:
    if spec.lower() == "pd":
        return builtin_pd()
    if spec.lower() == "cg":
        return builtin_cg()
    try:
        return load_game(spec)
    except OSError as exc:
        raise ValueError(f"--game: cannot read {spec!r}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"--game {spec}: {exc}") from None


def _resolve_profile(args) -> tuple[StrategyParams, StrategyParams]:
    d = args.degrees
    return (
        StrategyParams(_in_range(args.theta1, 0, math.pi, "--theta1", d),
                       _in_range(args.phi1, 0, math.pi / 2, "--phi1", d)),
        StrategyParams(_in_range(args.theta2, 0, math.pi, "--theta2", d),
                       _in_range(args.phi2, 0, math.pi / 2, "--phi2", d)),
    )


def _parse_grid(spec: str) -> tuple[int, int]:
    parts = spec.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--grid must look like 41x41, got {spec!r}")
    try:
        n_theta, n_phi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--grid must look like 41x41, got {spec!r}") from None
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"--grid must be at least 2x2, got {spec!r}")
    return n_theta, n_phi


def _add_angle_flags(sub, required: bool) -> None:
    kw = {"type": float, "required": True} if required else \
         {"type": float, "default": None}
    sub.add_argument("--theta1", **kw)
    sub.add_argument("--phi1", **kw)
    sub.add_argument("--theta2", **kw)
    sub.add_argument("--phi2", **kw)


def _default_quantum_angles(args) -> None:
    defaults = {"theta1": 0.0, "phi1": math.pi / 2, "theta2": 0.0, "phi2": math.pi / 2}
    for key, val in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, math.degrees(val) if args.degrees else val)


def _add_common(sub, default_format: str) -> None:
    sub.add_argument("--degrees", action="store_true",
                     help="interpret all angle flags in degrees")
    sub.add_argument("--format", choices=("table", "csv"), default=default_format)
    sub.add_argument("--output", default=None, help="write to file instead of stdout")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qgame",
                     description="Quantized 2x2 games on a noisy Bell state.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("payoff", help="payoffs of one profile, both routes")
    p.add_argument("--game", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_angle_flags(p, required=True)
    _add_common(p, "table")

    p = sub.add_parser("discord-curve", help="discord of the shared state vs p")
    p.add_argument("--steps", type=int, default=51)
    _add_common(p, "csv")

    p = sub.add_parser("nash-check", help="equilibrium verdict for a profile")
    p.add_argument("--game", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", default="41x41")
    _add_angle_flags(p, required=False)
    _add_common(p, "table")

    p = sub.add_parser("sweep-p", help="payoffs, (Q,Q) gap and discord along p")
    p.add_argument("--game", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--grid", default="41x41")
    _add_angle_flags(p, required=False)
    _add_common(p, "csv")

    p = sub.add_parser("classical", help="pure-strategy analysis of a game")
    p.add_argument("--game", required=True)
    _add_common(p, "table")

    p = sub.add_parser("report", help="dilemma-resolution summary")
    p.add_argument("--game", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", default="41x41")
    _add_common(p, "table")

    return parser


def _delta_or_default(args) -> float:
    if args.delta is None:
        return math.pi / 2
    return _in_range(args.delta, 0, math.pi / 2, "--delta", args.degrees)


def _cmd_payoff(args) -> int:
    game = _resolve_game(args.game)
    p = _in_range(args.p, 0, 1, "--p", args.degrees, angle=False)
    delta = _in_range(args.delta, 0, math.pi / 2, "--delta", args.degrees)
    cfg = QuantumGameConfig(game, p, delta)
    move_a, move_b = _resolve_profile(args)
    matrix = payoffs_matrix_path(cfg, move_a, move_b)
    closed = payoffs_closed_form(cfg, move_a, move_b)
    mismatch = max(abs(matrix[0] - closed[0]), abs(matrix[1] - closed[1]))
    rows = [
        ["payoff_a_matrix", _fmt(matrix[0])],
        ["payoff_b_matrix", _fmt(matrix[1])],
        ["payoff_a_closed", _fmt(closed[0])],
        ["payoff_b_closed", _fmt(closed[1])],
        ["route_mismatch", _fmt(mismatch)],
    ]
    _emit(("quantity", "value"), rows, args.format, args.output)
    if mismatch > PAYOFF_ROUTE_TOL:
        print(f"qgame payoff: payoff routes disagree by {mismatch:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_discord_curve(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    rows = []
    worst = 0.0
    for k in range(args.steps):
        p = k / (args.steps - 1)
        report = quantum_discord(werner_state(p))
        analytic = werner_discord_analytic(p)
        worst = max(worst, abs(report.discord - analytic))
        rows.append([
            _fmt(p),
            _fmt(report.discord),
            _fmt(analytic),
            _fmt(report.mutual_info),
            _fmt(report.classical_corr),
            classify_werner(p).region,
        ])
    _emit(("p", "discord_numeric", "discord_analytic", "mutual_info",
           "classical_corr", "region"), rows, args.format, args.output)
    if worst > DISCORD_ROUTE_TOL:
        print(f"qgame discord-curve: discord routes disagree by {worst:.3e}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_nash_check(args) -> int:
    game = _resolve_game(args.game)
    p = _in_range(args.p, 0, 1, "--p", args.degrees, angle=False)
    cfg = QuantumGameConfig(game, p, _delta_or_default(args))
    _default_quantum_angles(args)
    profile = _resolve_profile(args)
    verdict = verify_profile_nash(cfg, profile, _parse_grid(args.grid))
    rows = [
        ["is_equilibrium", str(verdict.is_equilibrium).lower()],
        ["min_gap", _fmt(verdict.min_gap)],
        ["worst_player", verdict.worst_player],
        ["worst_deviation_theta", _fmt(verdict.worst_deviation.theta)],
        ["worst_deviation_phi", _fmt(verdict.worst_deviation.phi)],
        ["grid", f"{verdict.grid_spec[0]}x{verdict.grid_spec[1]}"],
    ]
    _emit(("quantity", "value"), rows, args.format, args.output)
    return 0 if verdict.is_equilibrium else 1


def _cmd_sweep_p(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    game = _resolve_game(args.game)
    delta = _delta_or_default(args)
    _default_quantum_angles(args)
    profile = _resolve_profile(args)
    grid = _parse_grid(args.grid)
    rows = []
    for k in range(args.steps):
        p = k / (args.steps - 1)
        cfg = QuantumGameConfig(game, p, delta)
        pay = payoffs_matrix_path(cfg, *profile)
        verdict = verify_profile_nash(cfg, (QUANTUM, QUANTUM), grid)
        rows.append([
            _fmt(p),
            _fmt(pay[0]),
            _fmt(pay[1]),
            _fmt(verdict.min_gap),
            _fmt(werner_discord_analytic(p)),
        ])
    _emit(("p", "payoff_a", "payoff_b", "qq_gap_min", "discord"),
          rows, args.format, args.output)
    return 0


def _cmd_classical(args) -> int:
    game = _resolve_game(args.game)
    nash = pure_nash_equilibria(game)
    pareto = pareto_optimal_profiles(game)
    dom = {pl: dominant_strategy(game, pl) for pl in ("A", "B")}
    rows = [
        ["game", game.name],
        ["pure_nash", " ".join(p.label() for p in nash) or "none"],
        ["nash_payoffs", " ".join(
            f"({_fmt(a)},{_fmt(b)})" for a, b in (payoffs_at(game, p) for p in nash))
            or "none"],
        ["dominant_a", MOVE_LABELS[dom["A"]] if dom["A"] is not None else "none"],
        ["dominant_b", MOVE_LABELS[dom["B"]] if dom["B"] is not None else "none"],
        ["pareto_optimal", " ".join(p.label() for p in pareto)],
    ]
    _emit(("quantity", "value"), rows, args.format, args.output)
    return 0


def _cmd_report(args) -> int:
    tag = args.game.lower()
    if tag not in ("pd", "cg"):
        raise ValueError(f"--game must be pd or cg for report, got {args.game!r}")
    p = _in_range(args.p, 0, 1, "--p", args.degrees, angle=False)
    rep = dilemma_report(tag, p, _delta_or_default(args), _parse_grid(args.grid))
    rows = [
        ["game", rep.game],
        ["p", _fmt(rep.p)],
        ["delta", _fmt(rep.delta)],
        ["qq_payoff_a", _fmt(rep.qq_payoffs[0])],
        ["qq_payoff_b", _fmt(rep.qq_payoffs[1])],
        ["classical_nash", " ".join(prof.label() for prof, _ in rep.classical_equilibria)],
        ["is_equilibrium", str(rep.verdict.is_equilibrium).lower()],
        ["min_gap", _fmt(rep.verdict.min_gap)],
        ["region", rep.region],
        ["discord", _fmt(rep.discord)],
        ["dilemma_resolved", str(rep.dilemma_resolved).lower()],
    ]
    _emit(("quantity", "value"), rows, args.format, args.output)
    return 0


_DISPATCH = {
    "payoff": _cmd_payoff,
    "discord-curve": _cmd_discord_curve,
    "nash-check": _cmd_nash_check,
    "sweep-p": _cmd_sweep_p,
    "classical": _cmd_classical,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"qgame {args.command}: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
