"""The benchmark's three workloads.

Each workload turns (seed, cycle index) into a list of ops, runs one op as a
single closed-loop call into qgame, and checks the op's result against the
independent oracles in `oracles`.  Inputs are drawn from
numpy.random.default_rng([seed, cycle]), so a cycle's inputs depend on the
seed and the cycle index only, never on timing.  Every cycle of a workload
has the same shape (the same kinds of call, grids and state families), so
runs that finish a different number of cycles still measure the same mix.

The shapes follow the CLI defaults: a 41x41 Nash grid, 21 `sweep-p` steps,
51 `discord-curve` steps and a 48x48 coarse discord scan.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
from typing import NamedTuple

import numpy as np

import oracles

HALF_PI = math.pi / 2
QQ = (0.0, HALF_PI, 0.0, HALF_PI)
MOVES = {"C": (0.0, 0.0), "D": (math.pi, 0.0)}
BUILTIN_TABLES = {
    "pd": ([[3, 0], [5, 1]], [[3, 5], [0, 1]]),
    "cg": ([[3, 1], [4, 0]], [[3, 4], [1, 0]]),
}
CUSTOM_GAMES = 4
_GAMES_STREAM = 7919


class Op(NamedTuple):
    kind: str
    spec: tuple    # the generated input as plain numbers and strings
    args: object   # what the timed call receives


class Workload:
    """Interface the harness drives; `check_many` may vectorize the oracle."""

    name = ""
    trace_cycles = 1
    # the tail latency is taken over windows of this many whole cycles, so
    # its percentile, and the kind of op it lands on, is fixed by the shape
    # of a cycle and not by how many ops a run completes
    tail_cycles = 1

    def setup(self) -> None:
        pass

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> tuple:
        """(errors, diagnostics) of one op's result."""
        raise NotImplementedError

    def check_many(self, ops, results) -> list:
        return [self.check(op, res) for op, res in zip(ops, results)]


def custom_tables(seed: int) -> list:
    """Seeded custom 2x2 games with payoffs on a half-integer lattice, so the
    four-line game files hold them exactly."""
    rng = np.random.default_rng([seed, _GAMES_STREAM])
    return [(rng.integers(-6, 19, size=(2, 2)) / 2, rng.integers(-6, 19, size=(2, 2)) / 2)
            for _ in range(CUSTOM_GAMES)]


def _random_move(rng) -> tuple:
    return (float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, HALF_PI)))


def _classical_profile(rng) -> tuple:
    return MOVES["CD"[rng.integers(2)]] + MOVES["CD"[rng.integers(2)]]


def _random_profile(rng) -> tuple:
    return _random_move(rng) + _random_move(rng)


def parse_table(text: str) -> dict:
    """Rows of the CLI's two-column table output, keyed by quantity."""
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split(None, 1)
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


class NashSweep(Workload):
    """In-process `qgame.cli.main` calls: `report` and `nash-check`.

    Ten ops per cycle, eight of them on the default 41x41 grid:
      four `report` calls, pd and cg, p drawn below and above 1/3
      (p = 0 in the first cycle);
      `nash-check` of (Q,Q) at delta = pi/2 on pd or cg, angles defaulted;
      classical, random and (Q,Q) profiles on the seeded custom games and on
      pd/cg, delta in {0, random, pi/2}, grids 21x21, 41x41 and 81x81.
    """

    name = "nash-sweep"
    trace_cycles = 1
    tail_cycles = 3  # 30 ops, p66.7: a 41x41 op below the three 81x81 ones

    def __init__(self, qgame, seed: int, workdir: str):
        self.cli = importlib.import_module(qgame.__name__ + ".cli")
        self.seed = seed
        self.workdir = workdir
        self.tables = dict(BUILTIN_TABLES)
        self.paths = {}

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        for i, (a, b) in enumerate(custom_tables(self.seed)):
            key = f"custom{i}"
            path = os.path.join(self.workdir, key + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# seeded game {i}\n")
                for r, c, label in ((0, 0, "CC"), (0, 1, "CD"), (1, 0, "DC"), (1, 1, "DD")):
                    fh.write(f"{float(a[r, c])!r} {float(b[r, c])!r}  # {label}\n")
            self.tables[key] = (a, b)
            self.paths[key] = path

    def cycle(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        builtin = ("pd", "cg")[rng.integers(2)]
        customs = [f"custom{i}" for i in rng.permutation(CUSTOM_GAMES)[:3]]
        p_low = 0.0 if k == 0 else float(rng.uniform(0.01, 1 / 3))
        specs = [
            ("report", "pd", p_low),
            ("report", "cg", float(rng.uniform(0.01, 1 / 3))),
            ("report", "pd", float(rng.uniform(1 / 3, 1.0))),
            ("report", "cg", float(rng.uniform(1 / 3, 1.0))),
            # (Q,Q) with every flag defaulted: delta pi/2, 41x41
            ("nash-check", builtin, float(rng.uniform(0.01, 1.0)), None, None, None),
            ("nash-check", customs[0], float(rng.uniform(0.0, 1.0)), 0.0,
             _classical_profile(rng), "41x41"),
            ("nash-check", customs[1], float(rng.uniform(0.0, 1.0)),
             float(rng.uniform(0.0, HALF_PI)), _random_profile(rng), None),
            ("nash-check", ("cg", "pd")[rng.integers(2)], float(rng.uniform(0.0, 1.0)),
             float(rng.uniform(0.0, HALF_PI)), _random_profile(rng), "41x41"),
            ("nash-check", customs[2], float(rng.uniform(0.0, 1.0)), HALF_PI, QQ, "21x21"),
            ("nash-check", builtin, float(rng.uniform(0.0, 1.0)),
             (0.0, HALF_PI, float(rng.uniform(0.0, HALF_PI)))[rng.integers(3)],
             _random_profile(rng), "81x81"),
        ]
        return [Op(s[0], s, self._argv(s)) for s in specs]

    def _argv(self, spec) -> list:
        game = self.paths.get(spec[1], spec[1])
        if spec[0] == "report":
            return ["report", "--game", game, "--p", repr(spec[2])]
        _, _, p, delta, profile, grid = spec
        argv = ["nash-check", "--game", game, "--p", repr(p)]
        if delta is not None:
            argv += ["--delta", repr(delta)]
        if profile is not None:
            for flag, value in zip(("--theta1", "--phi1", "--theta2", "--phi2"), profile):
                argv += [flag, repr(value)]
        if grid is not None:
            argv += ["--grid", grid]
        return argv

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(op.args)
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> tuple:
        code, out, err = result
        if code not in (0, 1) or (op.kind == "report" and code != 0):
            return [f"exit {code}: {err.strip()[:200]}"], {}
        try:
            rows = parse_table(out)
            verdict = {"is_equilibrium": {"true": True, "false": False}[rows["is_equilibrium"]],
                       "min_gap": float(rows["min_gap"])}
            if op.kind == "nash-check":
                verdict.update(worst_player=rows["worst_player"],
                               worst_theta=float(rows["worst_deviation_theta"]),
                               worst_phi=float(rows["worst_deviation_phi"]))
        except (KeyError, ValueError) as exc:
            return [f"exit {code}, unparsable output ({exc!r}): {out[:200]!r} "
                    f"{err.strip()[:200]!r}"], {}
        if op.kind == "report":
            return self._check_report(op.spec, rows, verdict)

        _, key, p, delta, profile, grid = op.spec
        delta = HALF_PI if delta is None else delta
        profile = QQ if profile is None else profile
        grid = (41, 41) if grid is None else tuple(int(x) for x in grid.split("x"))
        a, b = self.tables[key]
        errors, drift = oracles.nash_certificate(a, b, p, delta, profile, grid, verdict)
        if (code == 0) != verdict["is_equilibrium"]:
            errors.append(f"exit {code} with is_equilibrium={verdict['is_equilibrium']}")
        if key in BUILTIN_TABLES and profile == QQ and delta == HALF_PI and p > 0 \
                and not verdict["is_equilibrium"]:
            errors.append(f"(Q,Q) of {key} at p={p} not an equilibrium")
        return errors, {"route_drift_max": drift}

    def _check_report(self, spec, rows, verdict) -> tuple:
        _, key, p = spec
        a, b = self.tables[key]
        errors, _ = oracles.nash_certificate(a, b, p, HALF_PI, QQ, (41, 41), verdict)
        qq = oracles.closed_form_payoffs(a, b, p, HALF_PI, *QQ)
        mutual, discord = oracles.luo_discord(oracles.werner_correlations(p))
        expected = {
            "game": key,
            "classical_nash": oracles.pure_nash_labels(a, b),
            "region": oracles.werner_region(p),
            # the dilemma is resolved for every p > 0, separable region included
            "dilemma_resolved": "true" if p > 0 else "false",
            "is_equilibrium": "true",
        }
        errors += [f"{k}={rows.get(k)!r}, expected {v!r}"
                   for k, v in expected.items() if rows.get(k) != v]
        for k, v in (("p", p), ("delta", HALF_PI), ("qq_payoff_a", qq[0]),
                     ("qq_payoff_b", qq[1]), ("discord", discord)):
            if abs(float(rows[k]) - v) > oracles.GAP_TOLERANCE:
                errors.append(f"{k}={rows[k]}, expected {v!r}")
        return errors, {"oracle_error_max": abs(float(rows["discord"]) - discord)}


class DiscordScan(Workload):
    """One `qgame.discord.quantum_discord` call per state.

    Eight states per cycle, alternating: four noisy Bell (Werner) states with
    p stratified over [0, 1] (p = 0 and p = 1 in the first cycle), the
    `discord-curve` traffic; and four Bell-diagonal states with unequal
    correlations under seeded local unitaries, rejected until the optimal
    axis is at least a quarter grid step off the 48x48 coarse scan.
    """

    name = "discord-scan"
    trace_cycles = 1
    tail_cycles = 8  # 64 ops, p84.4
    MIN_GRID_ANGLE = 0.25 * math.pi / (oracles.COARSE_STEPS - 1)
    MIN_EIGENVALUE = 0.02
    MIN_CORRELATION_GAP = 0.1

    def __init__(self, qgame, seed: int, workdir: str):
        self.discord = importlib.import_module(qgame.__name__ + ".discord")
        self.seed = seed
        self.grid = oracles.coarse_grid_vectors()

    def cycle(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        ps = (np.arange(4) + rng.uniform(size=4)) / 4
        if k == 0:
            ps[0], ps[-1] = 0.0, 1.0
        ops = []
        for p in ps.tolist():
            ops.append(Op("werner", ("werner", p), oracles.werner_matrix(p)))
            c, ua, ub, axis = self._rotated_bell_diagonal(rng)
            rho = np.kron(ua, ub) @ oracles.bell_diagonal_matrix(c) @ np.kron(ua, ub).conj().T
            ops.append(Op("bell", ("bell", c, tuple(ua.ravel().tolist()),
                                   tuple(ub.ravel().tolist()), tuple(axis.tolist())), rho))
        return ops

    def _rotated_bell_diagonal(self, rng):
        while True:
            c = tuple(rng.uniform(-1.0, 1.0, size=3).tolist())
            mags = sorted(abs(x) for x in c)
            if oracles.bell_diagonal_spectrum(c).min() < self.MIN_EIGENVALUE \
                    or mags[2] - mags[1] < self.MIN_CORRELATION_GAP:
                continue
            ua, ub = oracles.haar_unitary(rng), oracles.haar_unitary(rng)
            axis = oracles.bloch_rotation(ub)[:, int(np.argmax(np.abs(c)))]
            if oracles.angle_to_grid(axis, self.grid) >= self.MIN_GRID_ANGLE:
                return c, ua, ub, axis

    def run(self, op: Op):
        return self.discord.quantum_discord(op.args)

    def check(self, op: Op, report) -> tuple:
        c = oracles.werner_correlations(op.spec[1]) if op.kind == "werner" else op.spec[1]
        mutual, discord = oracles.luo_discord(c)
        err = max(abs(report.discord - discord), abs(report.mutual_info - mutual))
        errors = []
        if err > oracles.DISCORD_TOLERANCE:
            errors.append(f"discord {report.discord!r} / mutual {report.mutual_info!r}, "
                          f"Luo gives {discord!r} / {mutual!r}")
        if op.kind == "bell":
            found = oracles.axis_vector(*report.optimal_axis)
            miss = oracles.axis_error(found, np.array(op.spec[4]))
            if miss > oracles.AXIS_TOLERANCE:
                errors.append(f"optimal axis {miss:.3e} rad from the oracle's")
        return errors, {"oracle_error_max": err}


class PayoffPoints(Workload):
    """One `payoffs_matrix_path` and one `payoffs_closed_form` call per profile.

    512 scattered single profiles per cycle over pd, cg and the seeded
    custom games; p is 0 or 1 a tenth of the time each, delta is 0 or pi/2 a
    quarter of the time each; each move is C, D or Q a fifth of the time each.
    Configs and moves are built with the inputs, outside the timed call.
    """

    name = "payoff-points"
    trace_cycles = 2
    tail_cycles = 2  # 1,024 ops, p99.02
    BATCH = 512

    def __init__(self, qgame, seed: int, workdir: str):
        self.qgame = qgame
        self.seed = seed
        self.tables = list(BUILTIN_TABLES.values()) + custom_tables(seed)
        self.games = []

    def setup(self) -> None:
        self.games = [self.qgame.Bimatrix(a, b) for a, b in self.tables]

    def cycle(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        n = self.BATCH
        game = rng.integers(len(self.tables), size=n)
        p = np.select([rng.uniform(size=n) < 0.1, rng.uniform(size=n) < 1 / 9],
                      [0.0, 1.0], rng.uniform(size=n))
        pick = rng.uniform(size=n)
        delta = np.where(pick < 0.25, 0.0, np.where(pick < 0.5, HALF_PI,
                                                     rng.uniform(0.0, HALF_PI, size=n)))
        moves = []
        for _ in range(2):
            kind = rng.integers(5, size=n)
            theta = np.choose(kind, [0.0, math.pi, 0.0, rng.uniform(0, math.pi, size=n),
                                     rng.uniform(0, math.pi, size=n)])
            phi = np.choose(kind, [0.0, 0.0, HALF_PI, rng.uniform(0, HALF_PI, size=n),
                                   rng.uniform(0, HALF_PI, size=n)])
            moves.append((theta, phi))
        q = self.qgame
        ops = []
        for i in range(n):
            spec = (int(game[i]), float(p[i]), float(delta[i]), float(moves[0][0][i]),
                    float(moves[0][1][i]), float(moves[1][0][i]), float(moves[1][1][i]))
            args = (q.QuantumGameConfig(self.games[spec[0]], spec[1], spec[2]),
                    q.StrategyParams(spec[3], spec[4]), q.StrategyParams(spec[5], spec[6]))
            ops.append(Op("profile", spec, args))
        return ops

    def run(self, op: Op):
        return (self.qgame.payoffs_matrix_path(*op.args),
                self.qgame.payoffs_closed_form(*op.args))

    def check_many(self, ops, results) -> list:
        spec = np.array([op.spec for op in ops], dtype=float).reshape(-1, 7)
        g = spec[:, 0].astype(int)
        p, delta, ta, fa, tb, fb = spec[:, 1:].T
        table_a = np.array([a for a, _ in self.tables], dtype=float)[g]
        table_b = np.array([b for _, b in self.tables], dtype=float)[g]
        got = np.array(results, dtype=float).reshape(-1, 2, 2)
        refs = [("closed-form oracle", np.ones(len(ops), dtype=bool),
                 oracles.closed_form_payoffs(table_a, table_b, p, delta, ta, fa, tb, fb)),
                ("product-basis oracle", delta == 0.0,
                 oracles.product_basis_payoffs(table_a, table_b, p, ta, fa, tb, fb)),
                ("entangled-basis oracle", delta == HALF_PI,
                 oracles.entangled_basis_payoffs(table_a, table_b, p, ta, fa, tb, fb))]
        errors = [[] for _ in ops]
        for label, applies, ref in refs:
            ref = np.stack(ref, axis=-1)[:, None, :]
            miss = np.abs(got - ref).max(axis=-1)
            for i, r in zip(*np.nonzero(applies[:, None] & (miss > oracles.PAYOFF_TOLERANCE))):
                route = ("matrix path", "closed form")[r]
                errors[i].append(f"{route} {tuple(got[i, r])} vs {label} {tuple(ref[i, 0])}")
        drift = np.abs(got[:, 0] - got[:, 1]).max(axis=-1)
        return [(e, {"route_drift_max": float(d)}) for e, d in zip(errors, drift)]


WORKLOADS = {w.name: w for w in (NashSweep, DiscordScan, PayoffPoints)}
