"""End-to-end acceptance suite.

One test per shipped guarantee, each with its own tolerance and runtime
budget.  Run with -s to see the PASS lines:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from qgame.discord import quantum_discord, werner_discord_analytic
from qgame.equilibria import (
    cg_gap_closed_form,
    deviation_gap,
    dilemma_report,
    pd_gap_closed_form,
    verify_profile_nash,
)
from qgame.games import Bimatrix, builtin_cg, builtin_pd
from qgame.qmat import (
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from qgame.quantize import (
    COOPERATE,
    DEFECT,
    QUANTUM,
    QuantumGameConfig,
    StrategyParams,
    basis_projectors,
    classify_werner,
    final_state,
    payoffs_closed_form,
    payoffs_matrix_path,
    payoffs_product_basis,
    strategy_unitary,
    werner_state,
)

PD = builtin_pd()
CG = builtin_cg()
PI = math.pi
QQ = (QUANTUM, QUANTUM)


def random_move(rng):
    return StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2))


def test_criterion_01_classical_embedding():
    start = time.monotonic()
    worst = 0.0
    for game in (PD, CG):
        cfg = QuantumGameConfig(game, 1.0, PI / 2)
        for i, move_a in enumerate((COOPERATE, DEFECT)):
            for j, move_b in enumerate((COOPERATE, DEFECT)):
                got = payoffs_matrix_path(cfg, move_a, move_b)
                worst = max(worst, abs(got[0] - game.payoff_a[i, j]),
                            abs(got[1] - game.payoff_b[i, j]))
    assert worst < 1e-10
    assert time.monotonic() - start < 1.0
    print(f"PASS 01 classical corners embed at p=1 (max err {worst:.2e})")


def test_criterion_02_quantum_profile_payoff():
    start = time.monotonic()
    cfg = QuantumGameConfig(PD, 1.0, PI / 2)
    worst = 0.0
    for route in (payoffs_matrix_path, payoffs_closed_form):
        got = route(cfg, QUANTUM, QUANTUM)
        worst = max(worst, abs(got[0] - 3), abs(got[1] - 3))
    assert worst < 1e-10
    assert time.monotonic() - start < 1.0
    print(f"PASS 02 (Q,Q) pays (3,3) at p=1 on both routes (max err {worst:.2e})")


def test_criterion_03_gap_closed_forms():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        p = rng.uniform(0, 1)
        theta, phi = rng.uniform(0, PI), rng.uniform(0, PI / 2)
        deviant = StrategyParams(theta, phi)
        for game, form in ((PD, pd_gap_closed_form), (CG, cg_gap_closed_form)):
            cfg = QuantumGameConfig(game, p, PI / 2)
            numeric = deviation_gap(cfg, "B", QQ, deviant).gap
            closed = form(p, theta, phi)
            worst = max(worst, abs(numeric - closed))
            assert closed >= -1e-12
            assert numeric >= -1e-10
    assert worst < 1e-10
    assert time.monotonic() - start < 5.0
    print(f"PASS 03 deviation-gap closed forms, 500 samples, nonnegative "
          f"(max err {worst:.2e})")


def test_criterion_04_equilibrium_persists_in_p():
    start = time.monotonic()
    values = (0.01, 0.1, 1 / 3, 0.5, 1 / math.sqrt(2), 0.9, 1.0)
    for game in (PD, CG):
        for p in values:
            verdict = verify_profile_nash(QuantumGameConfig(game, p, PI / 2), QQ)
            assert verdict.is_equilibrium, (game.name, p, verdict.min_gap)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS 04 (Q,Q) equilibrium holds at 7 p-values, both games, "
          f"41x41 grid ({elapsed:.1f}s)")


def test_criterion_05_degenerate_p_limits():
    start = time.monotonic()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(100):
        move_a, move_b = random_move(rng), random_move(rng)
        delta = rng.uniform(0, PI / 2)
        for game, want in ((PD, 2.25), (CG, 2.0)):
            got = payoffs_matrix_path(QuantumGameConfig(game, 0.0, delta),
                                      move_a, move_b)
            worst = max(worst, abs(got[0] - want), abs(got[1] - want))
    assert worst < 1e-10
    assert time.monotonic() - start < 2.0
    print(f"PASS 05 p=0 payoffs collapse to (9/4,9/4) and (2,2) "
          f"(max err {worst:.2e})")


def test_criterion_06_discord_curve():
    start = time.monotonic()
    grid = np.linspace(0, 1, 51)
    numeric = []
    worst = 0.0
    for p in grid:
        d = quantum_discord(werner_state(p)).discord
        numeric.append(d)
        worst = max(worst, abs(d - werner_discord_analytic(p)))
    assert worst < 1e-6
    assert abs(numeric[0]) < 1e-6
    assert abs(numeric[-1] - 1) < 1e-6
    assert all(d > 0 for p, d in zip(grid[1:], numeric[1:]))
    assert all(b - a > -1e-9 for a, b in zip(numeric, numeric[1:]))
    spot = quantum_discord(werner_state(1 / 3)).discord
    assert abs(spot - 0.1258) < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS 06 discord curve: 51 points vs analytic (max err {worst:.2e}), "
          f"endpoints 0 and 1, nondecreasing, D(1/3) spot check ({elapsed:.1f}s)")


def test_criterion_07_separable_discordant_resolution():
    start = time.monotonic()
    for p in (0.1, 0.2, 0.3):
        assert classify_werner(p).region == "separable"
        for tag in ("pd", "cg"):
            report = dilemma_report(tag, p)
            assert report.discord > 1e-3, (tag, p, report.discord)
            assert report.dilemma_resolved, (tag, p)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS 07 dilemmas resolved on separable states with positive "
          f"discord at p=0.1,0.2,0.3 ({elapsed:.1f}s)")


def test_criterion_08_dual_path_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(1000):
        if k % 3 == 0:
            game = PD
        elif k % 3 == 1:
            game = CG
        else:
            game = Bimatrix(rng.uniform(-5, 5, (2, 2)), rng.uniform(-5, 5, (2, 2)))
        cfg = QuantumGameConfig(game, rng.uniform(0, 1), rng.uniform(0, PI / 2))
        move_a, move_b = random_move(rng), random_move(rng)
        matrix = payoffs_matrix_path(cfg, move_a, move_b)
        closed = payoffs_closed_form(cfg, move_a, move_b)
        worst = max(worst, abs(matrix[0] - closed[0]), abs(matrix[1] - closed[1]))
    assert worst < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS 08 matrix and closed-form payoffs agree on 1000 random "
          f"configs (max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_09_product_basis_limit():
    start = time.monotonic()
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(200):
        game = Bimatrix(rng.uniform(-5, 5, (2, 2)), rng.uniform(-5, 5, (2, 2)))
        cfg = QuantumGameConfig(game, rng.uniform(0, 1), 0.0)
        move_a, move_b = random_move(rng), random_move(rng)
        matrix = payoffs_matrix_path(cfg, move_a, move_b)
        product = payoffs_product_basis(cfg, move_a, move_b)
        worst = max(worst, abs(matrix[0] - product[0]), abs(matrix[1] - product[1]))
        noise = payoffs_product_basis(
            QuantumGameConfig(game, 0.0, 0.0), move_a, move_b)
        worst = max(worst, abs(noise[0] - game.payoff_a.mean()),
                    abs(noise[1] - game.payoff_b.mean()))
    assert worst < 1e-10
    assert time.monotonic() - start < 5.0
    print(f"PASS 09 product-basis route matches matrix path at delta=0, "
          f"p=0 averages entries (max err {worst:.2e})")


def test_criterion_10_linear_algebra_invariants():
    start = time.monotonic()
    rng = np.random.default_rng(2028)

    for delta in np.linspace(0, PI / 2, 50):
        projs = basis_projectors(delta)
        assert np.abs(sum(projs) - np.eye(4)).max() < 1e-12
        for proj in projs:
            assert np.abs(proj @ proj - proj).max() < 1e-12

    for _ in range(50):
        rho = werner_state(rng.uniform(0, 1))
        evolved = final_state(rho, random_move(rng), random_move(rng))
        validate_density_matrix(evolved)
        big = np.kron(strategy_unitary(random_move(rng)),
                      strategy_unitary(random_move(rng)))
        rotated = big @ rho @ big.conj().T
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10

    for _ in range(50):
        def qubit():
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            w = rng.uniform(0, 1)
            return w * np.outer(v, v.conj()) + (1 - w) * np.eye(2) / 2
        rho_a, rho_b = qubit(), qubit()
        joint = np.kron(rho_a, rho_b)
        assert np.abs(partial_trace(joint, "A") - rho_a).max() < 1e-12
        assert np.abs(partial_trace(joint, "B") - rho_b).max() < 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS 10 projector, density-matrix, entropy and partial-trace "
          f"invariants hold ({elapsed:.1f}s)")
