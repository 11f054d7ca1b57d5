import math

import numpy as np
import pytest

from qgame import qmat

SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

WERNER_THIRD_ENTROPY = 1.792481250360578  # 0.5 + 0.5*log2(6)


def bell_ket():
    k = np.zeros(4, dtype=complex)
    k[0], k[3] = 1 / math.sqrt(2), 1j / math.sqrt(2)
    return k


def werner(p):
    k = bell_ket()
    return p * np.outer(k, k.conj()) + (1 - p) / 4 * np.eye(4)


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(rng, dim):
    m = random_complex(rng, dim)
    return (m + m.conj().T) / 2


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(random_complex(rng, dim))
    return q


def random_density(rng, dim):
    kets = [random_unitary(rng, dim)[:, 0] for _ in range(3)]
    w = rng.uniform(0.05, 1.0, size=3)
    w /= w.sum()
    return sum(wi * np.outer(k, k.conj()) for wi, k in zip(w, kets))


def test_rejects_non_square_and_bad_dim():
    with pytest.raises(ValueError, match="square"):
        qmat.validate_density_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="2x2 or 4x4"):
        qmat.validate_density_matrix(np.ones((3, 3)) / 3)
    with pytest.raises(ValueError, match="non-finite"):
        qmat.validate_density_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_dagger():
    m = np.array([[1, 2 + 1j], [3j, 4]])
    d = qmat.dagger(m)
    assert np.allclose(d, m.conj().T)
    h = random_hermitian(np.random.default_rng(3), 4)
    assert np.allclose(qmat.dagger(h), h)


def test_kron_identity_and_flip():
    assert np.allclose(qmat.kron(I2, I2), I4)
    e0 = np.zeros(4)
    e0[0] = 1
    assert np.allclose(qmat.kron(SX, SX) @ e0, [0, 0, 0, 1])


def test_kron_index_convention():
    # entry ((2i+k),(2j+l)) must equal a[i,j] * b[k,l]: left factor is qubit A
    rng = np.random.default_rng(7)
    a, b = random_complex(rng, 2), random_complex(rng, 2)
    k = qmat.kron(a, b)
    for i in range(2):
        for j in range(2):
            for kk in range(2):
                for ll in range(2):
                    assert k[2 * i + kk, 2 * j + ll] == pytest.approx(a[i, j] * b[kk, ll])


def test_kron_broadcasts_stacks():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 1, 2, 2)) + 1j * rng.normal(size=(5, 1, 2, 2))
    b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    out = qmat.kron(a, b)
    assert out.shape == (5, 3, 4, 4)
    for i in range(5):
        for j in range(3):
            assert np.array_equal(out[i, j], qmat.kron(a[i, 0], b[j]))
            assert np.allclose(out[i, j], np.kron(a[i, 0], b[j]), atol=1e-15)


def test_kron_rejects_wrong_size():
    with pytest.raises(ValueError, match="2x2"):
        qmat.kron(I4, I2)


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        joint = np.kron(ra, rb)
        assert np.abs(qmat.partial_trace(joint, "A") - ra).max() < 1e-12
        assert np.abs(qmat.partial_trace(joint, "B") - rb).max() < 1e-12


def test_partial_trace_bell_marginals_maximally_mixed():
    rho = np.outer(bell_ket(), bell_ket().conj())
    for keep in ("A", "B"):
        assert np.abs(qmat.partial_trace(rho, keep) - I2 / 2).max() < 1e-12


def test_partial_trace_matches_index_sum():
    rng = np.random.default_rng(23)
    for _ in range(25):
        rho = random_density(rng, 4)
        want_a = np.zeros((2, 2), dtype=complex)
        want_b = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    want_a[i, j] += rho[2 * i + k, 2 * j + k]
                    want_b[i, j] += rho[2 * k + i, 2 * k + j]
        assert np.abs(qmat.partial_trace(rho, "A") - want_a).max() < 1e-12
        assert np.abs(qmat.partial_trace(rho, "B") - want_b).max() < 1e-12


def test_partial_trace_rejects_bad_input():
    with pytest.raises(ValueError, match="trace"):
        qmat.partial_trace(np.eye(4), "A")
    with pytest.raises(ValueError, match="Hermitian"):
        rho = werner(0.5)
        rho[0, 1] = 0.2
        qmat.partial_trace(rho, "A")
    with pytest.raises(ValueError, match="eigenvalue"):
        qmat.partial_trace(np.diag([1.2, -0.2, 0, 0]).astype(complex), "A")
    with pytest.raises(ValueError, match="keep"):
        qmat.partial_trace(werner(0.5), "C")
    with pytest.raises(ValueError, match="4x4"):
        qmat.partial_trace(I2 / 2, "A")


def test_shannon_entropy_values():
    assert qmat.shannon_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0)
    assert qmat.shannon_entropy([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0)
    assert qmat.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert qmat.shannon_entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(1.0)


def test_shannon_entropy_clamps_tiny_negative():
    val = qmat.shannon_entropy([0.5, 0.5, -1e-13, 1e-13])
    assert val == pytest.approx(1.0, abs=1e-10)


def test_shannon_entropy_rejects_bad_vectors():
    with pytest.raises(ValueError, match="sum"):
        qmat.shannon_entropy([0.5, 0.4])
    with pytest.raises(ValueError, match="below"):
        qmat.shannon_entropy([1.1, -0.1])
    with pytest.raises(ValueError, match="length"):
        qmat.shannon_entropy([0.5, 0.25, 0.25])


def test_entropy_bits_over_last_axis():
    w = np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0],
                  [0.5, 0.5, 1e-16, 0.0], [0.5, 0.25, 0.125, 0.125]])
    got = qmat.entropy_bits(w)
    assert got.shape == (4,)
    assert np.abs(got - [2.0, 0.0, 1.0, 1.75]).max() < 1e-15
    # weights at or below the cutoff contribute nothing, not 0 * log2(0)
    assert np.isfinite(qmat.entropy_bits(np.zeros((2, 3)))).all()
    assert qmat.entropy_bits([0.5, 0.5]) == 1.0


def test_von_neumann_entropy_values():
    assert qmat.von_neumann_entropy(I4 / 4) == pytest.approx(2.0, abs=1e-12)
    assert qmat.von_neumann_entropy(I2 / 2) == pytest.approx(1.0, abs=1e-12)
    pure = np.outer(bell_ket(), bell_ket().conj())
    assert qmat.von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert qmat.von_neumann_entropy(werner(1 / 3)) == pytest.approx(
        WERNER_THIRD_ENTROPY, abs=1e-12)


def test_von_neumann_entropy_unitary_invariance():
    rng = np.random.default_rng(47)
    for _ in range(50):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        rotated = u @ rho @ u.conj().T
        assert qmat.von_neumann_entropy(rotated) == pytest.approx(
            qmat.von_neumann_entropy(rho), abs=1e-10)


def test_validate_density_matrix_accepts_valid():
    out = qmat.validate_density_matrix(werner(0.7))
    assert out.shape == (4, 4)


def test_validate_density_matrices_checks_every_state():
    rng = np.random.default_rng(53)
    stack = np.array([random_density(rng, 4) for _ in range(6)])
    assert qmat.validate_density_matrices(stack).shape == (6, 4, 4)
    assert qmat.validate_density_matrices(stack[0]).shape == (4, 4)
    bad = stack.copy()
    bad[4, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        qmat.validate_density_matrices(bad)
    bad = stack.copy()
    bad[5] *= 1.5
    with pytest.raises(ValueError, match="trace"):
        qmat.validate_density_matrices(bad)
    bad = stack.copy()
    bad[2] = np.diag([1.2, -0.2, 0, 0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        qmat.validate_density_matrices(bad)
    with pytest.raises(ValueError, match="square"):
        qmat.validate_density_matrices(np.ones(4))


def test_clamp_to_range_scalars_and_arrays():
    assert qmat.clamp_to_range(1 + 1e-12, 0.0, 1.0, "p") == 1.0
    assert qmat.clamp_to_range(-1e-12, 0.0, 1.0, "p") == 0.0
    assert isinstance(qmat.clamp_to_range(np.float64(0.5), 0.0, 1.0, "p"), float)
    out = qmat.clamp_to_range([-1e-10, 0.5, 1 + 1e-10], 0.0, 1.0, "p")
    assert out.tolist() == [0.0, 0.5, 1.0]
    for bad in (1 + 2 * qmat.RANGE_SLACK, -2 * qmat.RANGE_SLACK, math.nan, math.inf):
        with pytest.raises(ValueError, match="p must lie in"):
            qmat.clamp_to_range(bad, 0.0, 1.0, "p")
        with pytest.raises(ValueError, match="p must lie in"):
            qmat.clamp_to_range([0.5, bad], 0.0, 1.0, "p")


def test_validate_probabilities_stacks():
    out = qmat.validate_probabilities([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.5, -1e-13]])
    assert out.shape == (2, 4) and out.min() == 0.0
    with pytest.raises(ValueError, match="sum"):
        qmat.validate_probabilities([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.2]])
    with pytest.raises(ValueError, match="below"):
        qmat.validate_probabilities([[0.5, 0.5, 0.0, 0.0], [0.6, 0.5, 0.0, -0.1]])


def test_validate_probabilities_floor():
    with pytest.raises(ValueError, match="below"):
        qmat.validate_probabilities([0.6, 0.4, 0.0, -1e-9], floor=-1e-10)
    out = qmat.validate_probabilities([0.6, 0.4, 0.0, -1e-11], floor=-1e-10)
    assert out.min() == 0.0
