import math

import numpy as np
import pytest

from qgame.games import Bimatrix, builtin_cg, builtin_pd
from qgame.quantize import (
    COOPERATE,
    DEFECT,
    QUANTUM,
    QuantumGameConfig,
    StrategyParams,
    basis_projectors,
    classify_werner,
    final_state,
    outcome_probabilities,
    payoffs_closed_form,
    payoffs_matrix_path,
    payoffs_matrix_path_batch,
    payoffs_product_basis,
    strategy_unitary,
    werner_state,
)

PD = builtin_pd()
CG = builtin_cg()
PI = math.pi


def cfg(game, p, delta):
    return QuantumGameConfig(game, p, delta)


def random_moves(rng, n):
    for _ in range(n):
        yield (StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2)),
               StrategyParams(rng.uniform(0, PI), rng.uniform(0, PI / 2)))


# test-local brute force, written from scratch so the matrix path is checked
# against an independent construction and not against itself
def brute_force_payoffs(game, p, delta, move_a, move_b):
    def u(m):
        c, s = math.cos(m.theta / 2), math.sin(m.theta / 2)
        return np.array([[np.exp(1j * m.phi) * c, s], [-s, np.exp(-1j * m.phi) * c]])

    ket = np.zeros(4, dtype=complex)
    ket[0], ket[3] = 1 / math.sqrt(2), 1j / math.sqrt(2)
    rho = p * np.outer(ket, ket.conj()) + (1 - p) / 4 * np.eye(4)
    big = np.kron(u(move_a), u(move_b))
    rho = big @ rho @ big.conj().T
    c, s = math.cos(delta / 2), math.sin(delta / 2)
    kets = [np.array([c, 0, 0, 1j * s]), np.array([0, c, -1j * s, 0]),
            np.array([0, -1j * s, c, 0]), np.array([1j * s, 0, 0, c])]
    probs = [np.real(k.conj() @ rho @ k) for k in kets]
    pa = sum(game.payoff_a.reshape(4)[i] * probs[i] for i in range(4))
    pb = sum(game.payoff_b.reshape(4)[i] * probs[i] for i in range(4))
    return pa, pb


def test_werner_state_pure_limit():
    rho = werner_state(1.0)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[3, 3] = 0.5
    want[0, 3] = -0.5j
    want[3, 0] = 0.5j
    assert np.abs(rho - want).max() < 1e-15


def test_werner_state_half():
    rho = werner_state(0.5)
    assert np.allclose(np.diag(rho), [3 / 8, 1 / 8, 1 / 8, 3 / 8])
    assert rho[0, 3] == pytest.approx(-0.25j)
    assert rho[3, 0] == pytest.approx(0.25j)


def test_werner_state_noise_limit():
    assert np.abs(werner_state(0.0) - np.eye(4) / 4).max() < 1e-15


def test_werner_state_spectrum_and_marginals():
    from qgame import qmat
    for p in np.linspace(0, 1, 7):
        rho = werner_state(p)
        ev = np.linalg.eigvalsh(rho)
        want = sorted([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
        assert np.allclose(ev, want, atol=1e-12)
        for keep in ("A", "B"):
            assert np.abs(qmat.partial_trace(rho, keep) - np.eye(2) / 2).max() < 1e-12


def test_werner_state_rejects_out_of_range():
    with pytest.raises(ValueError, match="p"):
        werner_state(-0.1)
    with pytest.raises(ValueError, match="p"):
        werner_state(1.1)


def test_strategy_unitary_special_points():
    assert np.allclose(strategy_unitary(COOPERATE), np.eye(2))
    assert np.allclose(strategy_unitary(DEFECT), [[0, 1], [-1, 0]], atol=1e-15)
    assert np.allclose(strategy_unitary(QUANTUM), np.diag([1j, -1j]), atol=1e-15)


def test_strategy_unitary_is_unitary():
    rng = np.random.default_rng(211)
    for move_a, _ in random_moves(rng, 200):
        u = strategy_unitary(move_a)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_strategy_params_validation():
    with pytest.raises(ValueError, match="theta"):
        StrategyParams(-0.1, 0.0)
    with pytest.raises(ValueError, match="phi"):
        StrategyParams(0.5, 2.0)
    clamped = StrategyParams(PI + 1e-10, 0.0)
    assert clamped.theta == PI


def test_config_validation():
    with pytest.raises(ValueError, match="delta"):
        cfg(PD, 0.5, 2.0)
    with pytest.raises(ValueError, match="p"):
        cfg(PD, -0.2, 0.0)


def test_final_state_identity_moves():
    rho = werner_state(0.6)
    assert np.abs(final_state(rho, COOPERATE, COOPERATE) - rho).max() < 1e-14


def test_final_state_noise_invariant_under_any_moves():
    rng = np.random.default_rng(223)
    rho = werner_state(0.0)
    for move_a, move_b in random_moves(rng, 20):
        assert np.abs(final_state(rho, move_a, move_b) - rho).max() < 1e-12


def test_final_state_double_flip_on_pure_bell():
    ket = np.zeros(4, dtype=complex)
    ket[0], ket[3] = 1j / math.sqrt(2), 1 / math.sqrt(2)  # (i|00> + |11>)/sqrt2
    want = np.outer(ket, ket.conj())
    got = final_state(werner_state(1.0), DEFECT, DEFECT)
    assert np.abs(got - want).max() < 1e-14


def test_projectors_product_basis():
    projs = basis_projectors(0.0)
    for i, proj in enumerate(projs):
        want = np.zeros((4, 4))
        want[i, i] = 1
        assert np.abs(proj - want).max() < 1e-15


def test_projectors_entangled_basis():
    p00 = basis_projectors(PI / 2)[0]
    ket = np.array([1, 0, 0, 1j]) / math.sqrt(2)
    assert np.abs(p00 - np.outer(ket, ket.conj())).max() < 1e-15


def test_projectors_resolve_identity_all_delta():
    for delta in np.linspace(0, PI / 2, 50):
        projs = basis_projectors(delta)
        assert np.abs(sum(projs) - np.eye(4)).max() < 1e-12
        for i, pi_ in enumerate(projs):
            assert np.abs(pi_ @ pi_ - pi_).max() < 1e-12
            assert np.abs(pi_ - pi_.conj().T).max() < 1e-12
            for j, pj in enumerate(projs):
                if i != j:
                    assert np.abs(pi_ @ pj).max() < 1e-12


def test_outcome_probabilities_examples():
    probs = outcome_probabilities(cfg(PD, 1.0, PI / 2), COOPERATE, COOPERATE)
    assert np.allclose(probs, [1, 0, 0, 0], atol=1e-12)
    probs = outcome_probabilities(cfg(PD, 1.0, 0.0), COOPERATE, COOPERATE)
    assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)
    rng = np.random.default_rng(227)
    for move_a, move_b in random_moves(rng, 10):
        probs = outcome_probabilities(cfg(CG, 0.0, rng.uniform(0, PI / 2)),
                                      move_a, move_b)
        assert np.allclose(probs, 0.25, atol=1e-12)


def test_outcome_probabilities_normalized():
    rng = np.random.default_rng(229)
    for move_a, move_b in random_moves(rng, 50):
        probs = outcome_probabilities(
            cfg(PD, rng.uniform(0, 1), rng.uniform(0, PI / 2)), move_a, move_b)
        assert probs.min() >= 0
        assert abs(probs.sum() - 1) < 1e-10


def test_matrix_path_against_test_local_brute_force():
    rng = np.random.default_rng(233)
    for move_a, move_b in random_moves(rng, 50):
        p, delta = rng.uniform(0, 1), rng.uniform(0, PI / 2)
        for game in (PD, CG):
            want = brute_force_payoffs(game, p, delta, move_a, move_b)
            got = payoffs_matrix_path(cfg(game, p, delta), move_a, move_b)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_classical_embedding_corners():
    for game in (PD, CG):
        c = cfg(game, 1.0, PI / 2)
        for i, move_a in enumerate((COOPERATE, DEFECT)):
            for j, move_b in enumerate((COOPERATE, DEFECT)):
                got = payoffs_matrix_path(c, move_a, move_b)
                assert got[0] == pytest.approx(game.payoff_a[i, j], abs=1e-10)
                assert got[1] == pytest.approx(game.payoff_b[i, j], abs=1e-10)


def test_noise_only_payoffs_are_entry_averages():
    rng = np.random.default_rng(239)
    for game in (PD, CG):
        c = cfg(game, 0.0, rng.uniform(0, PI / 2))
        for move_a, move_b in random_moves(rng, 20):
            got = payoffs_matrix_path(c, move_a, move_b)
            assert got[0] == pytest.approx(game.payoff_a.mean(), abs=1e-10)
            assert got[1] == pytest.approx(game.payoff_b.mean(), abs=1e-10)


def test_payoffs_linear_in_p():
    rng = np.random.default_rng(241)
    for move_a, move_b in random_moves(rng, 20):
        delta = rng.uniform(0, PI / 2)
        p = rng.uniform(0, 1)
        lo = payoffs_matrix_path(cfg(PD, 0.0, delta), move_a, move_b)
        hi = payoffs_matrix_path(cfg(PD, 1.0, delta), move_a, move_b)
        mid = payoffs_matrix_path(cfg(PD, p, delta), move_a, move_b)
        assert mid[0] == pytest.approx(p * hi[0] + (1 - p) * lo[0], abs=1e-10)
        assert mid[1] == pytest.approx(p * hi[1] + (1 - p) * lo[1], abs=1e-10)


def test_payoffs_within_entry_bounds():
    rng = np.random.default_rng(251)
    game = Bimatrix(rng.uniform(-4, 4, (2, 2)), rng.uniform(-4, 4, (2, 2)))
    for move_a, move_b in random_moves(rng, 30):
        c = cfg(game, rng.uniform(0, 1), rng.uniform(0, PI / 2))
        pa, pb = payoffs_matrix_path(c, move_a, move_b)
        assert game.payoff_a.min() - 1e-10 <= pa <= game.payoff_a.max() + 1e-10
        assert game.payoff_b.min() - 1e-10 <= pb <= game.payoff_b.max() + 1e-10


def test_closed_form_matches_matrix_path():
    rng = np.random.default_rng(257)
    games = [PD, CG, Bimatrix(rng.uniform(-4, 4, (2, 2)), rng.uniform(-4, 4, (2, 2)))]
    for k, (move_a, move_b) in enumerate(random_moves(rng, 300)):
        c = cfg(games[k % 3], rng.uniform(0, 1), rng.uniform(0, PI / 2))
        matrix = payoffs_matrix_path(c, move_a, move_b)
        closed = payoffs_closed_form(c, move_a, move_b)
        assert abs(matrix[0] - closed[0]) < 1e-10
        assert abs(matrix[1] - closed[1]) < 1e-10


def test_quantum_profile_payoffs_both_paths():
    for p in np.linspace(0, 1, 11):
        for game, want in ((PD, 2.25 + 0.75 * p), (CG, 2 + p)):
            c = cfg(game, p, PI / 2)
            for route in (payoffs_matrix_path, payoffs_closed_form):
                got = route(c, QUANTUM, QUANTUM)
                assert got[0] == pytest.approx(want, abs=1e-10)
                assert got[1] == pytest.approx(want, abs=1e-10)


def test_entangled_basis_specialization():
    rng = np.random.default_rng(263)
    c = cfg(PD, 0.8, PI / 2)
    for move_a, move_b in random_moves(rng, 100):
        want = payoffs_matrix_path(c, move_a, move_b)
        got = payoffs_closed_form(c, move_a, move_b)
        assert abs(got[0] - want[0]) < 1e-10
        assert abs(got[1] - want[1]) < 1e-10


def test_product_basis_specialization():
    rng = np.random.default_rng(269)
    c = cfg(CG, 0.6, 0.0)
    for move_a, move_b in random_moves(rng, 100):
        want = payoffs_matrix_path(c, move_a, move_b)
        got = payoffs_product_basis(c, move_a, move_b)
        assert abs(got[0] - want[0]) < 1e-10
        assert abs(got[1] - want[1]) < 1e-10
    with pytest.raises(ValueError, match="delta"):
        payoffs_product_basis(cfg(CG, 0.6, 0.5), QUANTUM, QUANTUM)


def test_product_basis_phase_only_moves_split_equal_outcomes():
    # with theta=0 for both players only the 00/11 outcomes survive, equally
    # weighted, so the pure-state payoff is the diagonal average
    for phi_a, phi_b in ((0.0, 0.0), (0.3, 1.1), (PI / 2, PI / 2)):
        got = payoffs_product_basis(cfg(PD, 1.0, 0.0),
                                    StrategyParams(0.0, phi_a),
                                    StrategyParams(0.0, phi_b))
        assert got[0] == pytest.approx(2.0, abs=1e-12)
        assert got[1] == pytest.approx(2.0, abs=1e-12)


def test_classify_werner_regions():
    assert classify_werner(0.0).region == "separable"
    assert classify_werner(0.2).region == "separable"
    third = classify_werner(1 / 3)
    assert third.region == "separable"
    assert third.at_separable_boundary
    assert classify_werner(0.34).region == "entangled_local"
    edge = classify_werner(1 / math.sqrt(2))
    assert edge.region == "entangled_local"
    assert edge.at_nonlocal_boundary
    assert classify_werner(0.72).region == "nonlocal"
    assert classify_werner(1.0).region == "nonlocal"
    assert not classify_werner(0.5).at_separable_boundary
    with pytest.raises(ValueError, match="p"):
        classify_werner(1.2)


# --------------------------------------------------------- batched kernel

def test_batch_kernel_matches_closed_form_on_random_arrays():
    rng = np.random.default_rng(271)
    games = [PD, CG] + [Bimatrix(rng.uniform(-4, 4, (2, 2)), rng.uniform(-4, 4, (2, 2)))
                        for _ in range(2)]
    checked = 0
    for k, delta in enumerate((0.0, PI / 2, *rng.uniform(0, PI / 2, size=6))):
        c = cfg(games[k % len(games)], (0.0, 1.0, *rng.uniform(0, 1, size=6))[k], delta)
        # A's moves along one axis, B's along the other: (20, 8) profiles
        ta, fa = rng.uniform(0, PI, (20, 1)), rng.uniform(0, PI / 2, (20, 1))
        tb, fb = rng.uniform(0, PI, 8), rng.uniform(0, PI / 2, 8)
        pay_a, pay_b = payoffs_matrix_path_batch(c, ta, fa, tb, fb)
        assert pay_a.shape == pay_b.shape == (20, 8)
        for i in range(20):
            for j in range(8):
                want = payoffs_closed_form(c, StrategyParams(ta[i, 0], fa[i, 0]),
                                           StrategyParams(tb[j], fb[j]))
                assert abs(pay_a[i, j] - want[0]) < 1e-10
                assert abs(pay_b[i, j] - want[1]) < 1e-10
                checked += 1
    assert checked >= 1000


def test_batch_kernel_element_equals_single_profile_call():
    # the grid verdict's tie-break relies on a profile's payoffs not
    # depending on the stack they are computed in
    rng = np.random.default_rng(277)
    c = cfg(CG, 0.45, 0.9)
    ta, fa = rng.uniform(0, PI, 600), rng.uniform(0, PI / 2, 600)
    tb, fb = rng.uniform(0, PI, 600), rng.uniform(0, PI / 2, 600)
    pay_a, pay_b = payoffs_matrix_path_batch(c, ta, fa, tb, fb)
    for i in range(0, 600, 7):
        single = payoffs_matrix_path(c, StrategyParams(ta[i], fa[i]),
                                     StrategyParams(tb[i], fb[i]))
        assert single == (pay_a[i], pay_b[i])
    assert np.array_equal(outcome_probabilities(c, StrategyParams(ta[5], fa[5]),
                                                StrategyParams(tb[5], fb[5])),
                          _outcome_rows(c, ta, fa, tb, fb)[5])


def _outcome_rows(c, ta, fa, tb, fb):
    # outcome distributions of a stack, read back from the payoffs of the
    # four indicator games
    rows = []
    for k in range(4):
        table = np.zeros(4)
        table[k] = 1.0
        game = Bimatrix(table.reshape(2, 2), table.reshape(2, 2))
        rows.append(payoffs_matrix_path_batch(cfg(game, c.p, c.delta), ta, fa, tb, fb)[0])
    return np.stack(rows, axis=-1)


def test_batch_kernel_scalar_inputs_and_range_checks():
    c = cfg(PD, 0.3, PI / 2)
    got = payoffs_matrix_path_batch(c, 0.0, PI / 2, 0.0, PI / 2)
    assert np.shape(got[0]) == ()
    assert (float(got[0]), float(got[1])) == payoffs_matrix_path(c, QUANTUM, QUANTUM)
    edge = payoffs_matrix_path_batch(c, [PI + 1e-10], [-1e-10], [0.0], [PI / 2])
    assert edge[0][0] == pytest.approx(payoffs_matrix_path(c, DEFECT, QUANTUM)[0], abs=1e-12)
    with pytest.raises(ValueError, match="theta"):
        payoffs_matrix_path_batch(c, [0.1, PI + 1e-3], 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="phi"):
        payoffs_matrix_path_batch(c, 0.0, 0.0, 0.0, [0.2, np.nan])


@pytest.mark.parametrize("defect, message", [
    (lambda rho: rho + np.triu(np.full((4, 4), 1e-6), 1), "not Hermitian"),
    (lambda rho: rho + np.diag([0.5, -0.5, 0.0, 0.0]), "negative eigenvalue"),
], ids=["non_hermitian", "non_psd"])
def test_batch_kernel_rejects_bad_shared_state_like_scalar_route(monkeypatch, defect,
                                                                 message):
    from qgame import quantize
    monkeypatch.setattr(quantize, "werner_state",
                        lambda p: defect(np.eye(4, dtype=complex) / 4))
    c = cfg(CG, 0.5, 0.7)
    with pytest.raises(ValueError, match=message) as scalar:
        payoffs_matrix_path(c, QUANTUM, DEFECT)
    with pytest.raises(ValueError, match=message) as batched:
        payoffs_matrix_path_batch(c, np.linspace(0, PI, 50), 0.3, 0.0, PI / 2)
    assert str(scalar.value).startswith("final state")
    assert str(batched.value).startswith("final state")
