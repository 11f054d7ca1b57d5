import math

import numpy as np
import pytest

from qgame import equilibria, quantize
from qgame.equilibria import (
    DEFAULT_GRID,
    GAP_TOLERANCE,
    cg_gap_closed_form,
    deviation_gap,
    dilemma_report,
    pd_gap_closed_form,
    verify_profile_nash,
)
from qgame.games import Bimatrix, builtin_cg, builtin_pd
from qgame.quantize import (
    COOPERATE,
    DEFECT,
    QUANTUM,
    QuantumGameConfig,
    StrategyParams,
    payoffs_closed_form,
    payoffs_matrix_path,
    payoffs_matrix_path_batch,
)

PD = builtin_pd()
CG = builtin_cg()
PI = math.pi
QQ = (QUANTUM, QUANTUM)


def cfg(game, p):
    return QuantumGameConfig(game, p, PI / 2)


def test_gap_zero_at_reference_move():
    for game in (PD, CG):
        got = deviation_gap(cfg(game, 0.7), "B", QQ, QUANTUM)
        assert got.gap == pytest.approx(0.0, abs=1e-12)


def test_gap_to_defect_from_quantum_pair():
    # against Q, switching to D costs a PD player 3p
    for p in (0.0, 0.3, 1.0):
        got = deviation_gap(cfg(PD, p), "B", QQ, DEFECT)
        assert got.gap == pytest.approx(3 * p, abs=1e-12)


def test_closed_form_gaps_match_matrix_route():
    rng = np.random.default_rng(401)
    for _ in range(200):
        p = rng.uniform(0, 1)
        theta, phi = rng.uniform(0, PI), rng.uniform(0, PI / 2)
        deviant = StrategyParams(theta, phi)
        for game, form in ((PD, pd_gap_closed_form), (CG, cg_gap_closed_form)):
            want = deviation_gap(cfg(game, p), "B", QQ, deviant).gap
            got = form(p, theta, phi)
            assert abs(got - want) < 1e-10
            assert got >= -1e-12


def test_deviation_symmetric_between_players():
    rng = np.random.default_rng(409)
    for _ in range(50):
        deviant = StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2))
        c = cfg(PD, rng.uniform(0, 1))
        fix_b = deviation_gap(c, "B", QQ, deviant).gap
        fix_a = deviation_gap(c, "A", QQ, deviant).gap
        assert fix_b == pytest.approx(fix_a, abs=1e-12)


def test_quantum_pair_is_equilibrium_at_half():
    verdict = verify_profile_nash(cfg(PD, 0.5), QQ)
    assert verdict.is_equilibrium
    assert verdict.min_gap == pytest.approx(0.0, abs=1e-12)
    assert verdict.worst_player == "A"
    assert verdict.worst_deviation.theta == pytest.approx(0.0)
    assert verdict.worst_deviation.phi == pytest.approx(PI / 2)
    assert verdict.grid_spec == DEFAULT_GRID


def test_quantum_pair_degenerate_at_zero():
    # pure noise pays everyone the same, so nothing beats the profile
    verdict = verify_profile_nash(cfg(PD, 0.0), QQ, grid=(21, 21))
    assert verdict.is_equilibrium
    assert verdict.min_gap == pytest.approx(0.0, abs=1e-12)


def test_cooperate_pair_is_not_equilibrium():
    verdict = verify_profile_nash(cfg(PD, 1.0), (COOPERATE, COOPERATE),
                                  grid=(21, 21))
    assert not verdict.is_equilibrium
    assert verdict.min_gap == pytest.approx(-2.0, abs=1e-12)
    assert verdict.worst_deviation.theta == pytest.approx(PI)


def test_verdict_flag_matches_gap():
    rng = np.random.default_rng(419)
    for _ in range(10):
        profile = (StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2)),
                   StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2)))
        verdict = verify_profile_nash(cfg(CG, rng.uniform(0, 1)), profile,
                                      grid=(11, 11))
        assert verdict.is_equilibrium == (verdict.min_gap >= -GAP_TOLERANCE)


def test_finer_grid_cannot_improve_on_exact_equilibrium():
    coarse = verify_profile_nash(cfg(CG, 0.8), QQ, grid=(41, 41))
    fine = verify_profile_nash(cfg(CG, 0.8), QQ, grid=(81, 81))
    assert coarse.is_equilibrium and fine.is_equilibrium
    assert fine.min_gap <= coarse.min_gap + 1e-12


def test_grid_validation():
    with pytest.raises(ValueError, match="grid"):
        verify_profile_nash(cfg(PD, 0.5), QQ, grid=(1, 41))


def test_dilemma_report_pd_full_entanglement():
    report = dilemma_report("pd", 1.0)
    assert report.dilemma_resolved
    assert report.verdict.is_equilibrium
    assert report.qq_payoffs[0] == pytest.approx(3.0, abs=1e-10)
    assert report.qq_payoffs[1] == pytest.approx(3.0, abs=1e-10)
    assert report.region == "nonlocal"
    assert [tuple(prof) for prof, _ in report.classical_equilibria] == [(1, 1)]
    assert report.classical_equilibria[0][1] == (1.0, 1.0)
    assert report.discord == pytest.approx(1.0, abs=1e-6)


def test_dilemma_report_pd_separable_region():
    report = dilemma_report("pd", 0.2, grid=(21, 21))
    assert report.dilemma_resolved
    assert report.region == "separable"
    assert report.discord > 1e-3
    assert report.qq_payoffs[0] == pytest.approx(2.4, abs=1e-10)


def test_dilemma_report_pd_no_correlations():
    # p=0 keeps (Q,Q) an equilibrium but deviations tie, nothing is resolved
    report = dilemma_report("pd", 0.0, grid=(21, 21))
    assert not report.dilemma_resolved
    assert report.verdict.is_equilibrium
    assert report.discord == pytest.approx(0.0, abs=1e-8)
    assert report.qq_payoffs[0] == pytest.approx(2.25, abs=1e-10)


def test_dilemma_report_cg():
    full = dilemma_report("cg", 1.0, grid=(21, 21))
    assert full.dilemma_resolved
    assert full.qq_payoffs[0] == pytest.approx(3.0, abs=1e-10)
    assert {tuple(prof) for prof, _ in full.classical_equilibria} == {(0, 1), (1, 0)}
    noise = dilemma_report("cg", 0.0, grid=(21, 21))
    assert not noise.dilemma_resolved


def test_dilemma_report_rejects_unknown_game():
    with pytest.raises(ValueError, match="game"):
        dilemma_report("matching-pennies", 0.5)


# ------------------------------------------------------- batched grid scan

def scalar_scan(c, profile, grid):
    """Brute-force verdict from one deviation_gap call per grid point, in
    the documented scan order: player A then B, theta-major, phi-minor."""
    best = (math.inf, None, None)
    for player, fixed in (("A", "B"), ("B", "A")):
        for theta in np.linspace(0.0, PI, grid[0]):
            for phi in np.linspace(0.0, PI / 2, grid[1]):
                got = deviation_gap(c, fixed, profile, StrategyParams(theta, phi))
                if got.gap < best[0]:
                    best = (got.gap, player, got.deviant)
    return best


def random_game(rng):
    return Bimatrix(rng.integers(-6, 19, (2, 2)) / 2, rng.integers(-6, 19, (2, 2)) / 2)


def random_profile(rng):
    return (StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2)),
            StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2)))


@pytest.mark.parametrize("grid", [(11, 11), (21, 21)])
def test_batched_verdict_matches_scalar_scan(grid):
    rng = np.random.default_rng(431 + grid[0])
    for delta in (0.0, rng.uniform(0, PI / 2), PI / 2):
        c = QuantumGameConfig(random_game(rng), rng.uniform(0, 1), delta)
        profile = random_profile(rng)
        gap, player, deviant = scalar_scan(c, profile, grid)
        verdict = verify_profile_nash(c, profile, grid)
        assert verdict.min_gap == pytest.approx(gap, abs=1e-12)
        assert verdict.is_equilibrium == (gap >= -GAP_TOLERANCE)
        assert (verdict.worst_player, verdict.worst_deviation) == (player, deviant)
        assert verdict.reference_payoffs == payoffs_matrix_path(c, *profile)


def test_81x81_minimum_is_the_kernel_gap_at_the_worst_deviation():
    # B's best deviation is grid point 6479 of 6561; the runner-up is 2e-4 worse
    game = Bimatrix([[8.5, 4.5], [8.5, 7.5]], [[1.0, 0.5], [5.0, 3.5]])
    c = QuantumGameConfig(game, 0.93, 1.1)
    profile = (StrategyParams(0.65, 1.52), StrategyParams(1.07, 1.29))
    grid = (81, 81)
    thetas, phis = (a.ravel() for a in np.meshgrid(
        np.linspace(0, PI, 81), np.linspace(0, PI / 2, 81), indexing="ij"))
    full_b = payoffs_matrix_path_batch(c, profile[0].theta, profile[0].phi, thetas, phis)[1]
    gaps_b = payoffs_matrix_path(c, *profile)[1] - full_b
    index = int(np.argmin(gaps_b))

    verdict = verify_profile_nash(c, profile, grid)
    assert verdict.worst_player == "B"
    assert verdict.worst_deviation == StrategyParams(thetas[index], phis[index])
    assert verdict.min_gap == gaps_b[index]
    closed = payoffs_closed_form(c, *profile)[1] - payoffs_closed_form(
        c, profile[0], verdict.worst_deviation)[1]
    assert verdict.min_gap == pytest.approx(closed, abs=1e-10)
    assert not verdict.is_equilibrium


def test_kernel_work_does_not_grow_with_the_grid(monkeypatch):
    # one spy on every name of the kernel, so the reference's call counts too
    kernel = quantize.payoffs_matrix_path_batch
    counts = []
    for grid in ((11, 11), (81, 81)):
        sizes = []

        def spy(cfg, *angles):
            sizes.append(np.broadcast(*angles).size)
            return kernel(cfg, *angles)

        with monkeypatch.context() as patch:
            patch.setattr(quantize, "payoffs_matrix_path_batch", spy)
            patch.setattr(equilibria, "payoffs_matrix_path_batch", spy)
            verify_profile_nash(cfg(CG, 0.4), QQ, grid=grid)
        counts.append((len(sizes), sum(sizes)))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 3


def test_quadratic_form_matches_kernel_on_31x31_grid():
    rng = np.random.default_rng(457)
    thetas, phis = np.linspace(0, PI, 31)[:, None], np.linspace(0, PI / 2, 31)
    for delta in (0.0, PI / 2, *rng.uniform(0, PI / 2, 4)):
        c = QuantumGameConfig(random_game(rng), rng.uniform(0, 1), delta)
        (move_a, move_b) = profile = random_profile(rng)
        q_a, q_b = equilibria._fit_forms(c, profile, payoffs_matrix_path(c, *profile))
        kernel_a = payoffs_matrix_path_batch(c, thetas, phis, move_b.theta, move_b.phi)[0]
        kernel_b = payoffs_matrix_path_batch(c, move_a.theta, move_a.phi, thetas, phis)[1]
        assert np.abs(equilibria._form(q_a, thetas, phis) - kernel_a).max() < 1e-12
        assert np.abs(equilibria._form(q_b, thetas, phis) - kernel_b).max() < 1e-12


def alter_kernel(monkeypatch, alter):
    """Make the verdict's own kernel calls (not the reference's) return
    alter(theta_a, phi_a, payoffs) for each player's payoffs."""
    kernel = quantize.payoffs_matrix_path_batch

    def altered(cfg, theta_a, phi_a, theta_b, phi_b):
        theta_a, phi_a = np.asarray(theta_a), np.asarray(phi_a)
        return tuple(alter(theta_a, phi_a, pay)
                     for pay in kernel(cfg, theta_a, phi_a, theta_b, phi_b))

    monkeypatch.setattr(equilibria, "payoffs_matrix_path_batch", altered)


def test_kernel_that_is_not_quadratic_fails_the_fit_check(monkeypatch):
    # 1e-6 sin^2(theta_a) sin^2(2 phi_a) is zero at the fit moves and at both
    # players' moves, so the fitted Q misses all of it, 8/9 of 1e-6, at A's probe
    alter_kernel(monkeypatch, lambda theta_a, phi_a, pay:
                 pay + 1e-6 * (np.sin(theta_a) * np.sin(2 * phi_a)) ** 2)
    with pytest.raises(ValueError, match="fit check missed .* by 8.889e-07"):
        verify_profile_nash(cfg(PD, 0.6), QQ, grid=(11, 11))


def test_worst_deviation_miss_raises(monkeypatch):
    # right on the fit moves, off by 1e-8 on a single-profile call
    alter_kernel(monkeypatch, lambda theta_a, phi_a, pay: pay + 1e-8 * (pay.size == 1))
    with pytest.raises(ValueError, match="worst-deviation check missed .* by 1.000e-08"):
        verify_profile_nash(cfg(PD, 0.0), QQ, grid=(11, 11))


def test_dilemma_report_evaluates_reference_once(monkeypatch):
    calls = []
    single = equilibria.payoffs_matrix_path

    def spy(*args):
        calls.append(args)
        return single(*args)

    monkeypatch.setattr(equilibria, "payoffs_matrix_path", spy)
    report = dilemma_report("pd", 0.6, grid=(11, 11))
    assert len(calls) == 1
    assert report.qq_payoffs == report.verdict.reference_payoffs
    assert report.dilemma_resolved
