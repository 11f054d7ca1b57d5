import math

import numpy as np
import pytest

from qgame.discord import (
    BlochDirection,
    _conditional_entropies,
    conditional_entropy,
    measurement_projectors,
    mutual_information,
    quantum_discord,
    werner_discord_analytic,
)
from qgame.qmat import RANGE_SLACK, shannon_entropy, von_neumann_entropy
from qgame.quantize import classify_werner, werner_state

# reference values computed once from the closed-form Werner expressions and
# pinned so a regression in either route is visible
WERNER_HALF_MUTUAL_INFO = 0.4512050593046013
WERNER_THIRD_DISCORD = 0.12581458369391152


def random_density(rng, dim):
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def random_axis(rng):
    return BlochDirection(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex))


def brute_conditional_entropy(rho, axis):
    # measure B along axis one outcome at a time: branch rho (I x Pi), partial
    # trace over B, spectrum, cutoffs
    total = 0.0
    for proj in measurement_projectors(axis):
        branch = rho @ np.kron(np.eye(2), proj)
        p_i = float(np.trace(branch).real)
        if p_i < 1e-14:
            continue
        reduced = np.einsum("ikjk->ij", branch.reshape(2, 2, 2, 2)) / p_i
        ev = np.clip(np.linalg.eigvalsh(reduced), 0.0, 1.0)
        ev = ev[ev > 1e-15]
        total += p_i * float(-np.sum(ev * np.log2(ev)))
    return total


def first_improvement_axis(rho, coarse_steps=48, axis_resolution=1e-6):
    # the minimizer's search written out axis by axis over the public
    # conditional_entropy: the coarse grid polar-major, then 5x5 patches in
    # the plane tangent to the sphere at the best axis, the span halving per
    # level; replace only on a 1e-15 improvement
    best_val, best = math.inf, BlochDirection(0.0, 0.0)

    def visit(axes):
        nonlocal best_val, best
        for axis in axes:
            val = conditional_entropy(rho, axis)
            if val < best_val - 1e-15:
                best_val, best = val, axis

    visit(BlochDirection(float(t), float(f))
          for t in np.linspace(0.0, math.pi, coarse_steps)
          for f in np.arange(coarse_steps) * (2 * math.pi / coarse_steps))
    span = max(math.pi / (coarse_steps - 1), 2 * math.pi / coarse_steps)
    while span > axis_resolution:
        t, f = best
        n = np.array([math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)])
        e_t = np.array([math.cos(t) * math.cos(f), math.cos(t) * math.sin(f), -math.sin(t)])
        e_f = np.array([-math.sin(f), math.cos(f), 0.0])
        patch = []
        for a in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for b in (-1.0, -0.5, 0.0, 0.5, 1.0):
                x, y, z = n + a * span * e_t + b * span * e_f
                patch.append(BlochDirection(math.atan2(math.hypot(x, y), z),
                                            math.atan2(y, x) % (2 * math.pi)))
        visit(patch)
        span /= 2
    return best


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bloch_rotation(u):
    # R[j, k] = Tr[sigma_j U sigma_k U^dagger] / 2, the rotation U induces
    return np.array([[np.trace(sj @ u @ sk @ u.conj().T).real / 2 for sk in PAULI]
                     for sj in PAULI])


def luo_discord(c):
    """Mutual information, discord and optimal B axis of the Bell-diagonal
    state (I x I + sum_i c_i sigma_i x sigma_i) / 4 (Luo, PRA 77, 042303)."""
    c1, c2, c3 = c
    spectrum = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                         1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
    mutual = 2.0 - shannon_entropy(spectrum)
    cmax = max(abs(x) for x in c)
    classical = 1.0 - shannon_entropy([(1 + cmax) / 2, (1 - cmax) / 2])
    return mutual, mutual - classical, int(np.argmax(np.abs(c)))


def test_mutual_information_product_state():
    rng = np.random.default_rng(311)
    for _ in range(20):
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        assert abs(mutual_information(rho)) < 1e-10


def test_mutual_information_pure_bell():
    assert mutual_information(werner_state(1.0)) == pytest.approx(2.0, abs=1e-12)


def test_mutual_information_werner_half():
    got = mutual_information(werner_state(0.5))
    assert got == pytest.approx(WERNER_HALF_MUTUAL_INFO, abs=1e-12)


def test_measurement_projectors_axes():
    up, down = measurement_projectors(BlochDirection(0.0, 0.0))
    assert np.allclose(up, [[1, 0], [0, 0]], atol=1e-15)
    assert np.allclose(down, [[0, 0], [0, 1]], atol=1e-15)
    plus, minus = measurement_projectors(BlochDirection(math.pi / 2, 0.0))
    assert np.allclose(plus, np.full((2, 2), 0.5), atol=1e-15)
    assert np.allclose(minus, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_measurement_projectors_properties():
    rng = np.random.default_rng(313)
    for _ in range(100):
        up, down = measurement_projectors(random_axis(rng))
        assert np.abs(up + down - np.eye(2)).max() < 1e-12
        assert np.abs(up @ up - up).max() < 1e-12
        assert np.abs(up @ down).max() < 1e-12
        assert np.abs(up - up.conj().T).max() < 1e-12


def test_entropy_kernel_matches_brute_force():
    rng = np.random.default_rng(353)
    for _ in range(20):
        rho = random_density(rng, 4)
        theta = np.arccos(rng.uniform(-1, 1, 50))
        phi = rng.uniform(0, 2 * math.pi, 50)
        got = _conditional_entropies(rho, theta, phi)
        assert got.shape == (50,)
        want = [brute_conditional_entropy(rho, BlochDirection(t, f))
                for t, f in zip(theta, phi)]
        assert np.abs(got - want).max() < 1e-12


def test_entropy_kernel_stack_element_equals_single_call():
    rng = np.random.default_rng(359)
    rho = random_density(rng, 4)
    theta = np.linspace(0.0, math.pi, 9)
    phi = rng.uniform(0, 2 * math.pi, 7)
    grid = _conditional_entropies(rho, theta[:, None], phi)
    assert grid.shape == (9, 7)
    for i, j in ((0, 0), (3, 5), (8, 6), (4, 0)):
        single = conditional_entropy(rho, BlochDirection(float(theta[i]), float(phi[j])))
        assert grid[i, j] == single


def test_conditional_entropy_validates_state():
    with pytest.raises(ValueError, match="trace"):
        conditional_entropy(np.eye(4), BlochDirection(0.0, 0.0))


def test_conditional_entropy_product_state():
    # measuring B of a product state leaves A untouched whatever the axis
    rng = np.random.default_rng(317)
    for _ in range(20):
        rho_a = random_density(rng, 2)
        rho = np.kron(rho_a, random_density(rng, 2))
        got = conditional_entropy(rho, random_axis(rng))
        assert got == pytest.approx(von_neumann_entropy(rho_a), abs=1e-10)


def test_conditional_entropy_werner_z_axis():
    for p in (0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0):
        got = conditional_entropy(werner_state(p), BlochDirection(0.0, 0.0))
        q = (1 + p) / 2
        want = 0.0 if p == 1.0 else -(q * math.log2(q) + (1 - q) * math.log2(1 - q))
        assert got == pytest.approx(want, abs=1e-12)


def test_conditional_entropy_werner_axis_independent():
    rng = np.random.default_rng(331)
    for p in (0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0):
        ref = conditional_entropy(werner_state(p), BlochDirection(0.0, 0.0))
        for _ in range(100):
            got = conditional_entropy(werner_state(p), random_axis(rng))
            assert abs(got - ref) < 1e-10


def test_discord_vanishes_on_product_states():
    rng = np.random.default_rng(337)
    for _ in range(5):
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        assert quantum_discord(rho).discord < 1e-8


def test_discord_pure_bell():
    report = quantum_discord(werner_state(1.0))
    assert report.discord == pytest.approx(1.0, abs=1e-8)
    assert report.classical_corr == pytest.approx(1.0, abs=1e-8)


def test_discord_werner_third_pinned():
    report = quantum_discord(werner_state(1 / 3))
    assert report.discord == pytest.approx(WERNER_THIRD_DISCORD, abs=1e-6)
    assert report.discord == pytest.approx(werner_discord_analytic(1 / 3), abs=1e-6)


def test_discord_matches_analytic_on_grid():
    for p in np.linspace(0, 1, 11):
        got = quantum_discord(werner_state(p)).discord
        assert abs(got - werner_discord_analytic(p)) < 1e-6


@pytest.mark.parametrize("rho", [random_density(np.random.default_rng(379), 4),
                                 random_density(np.random.default_rng(383), 4),
                                 werner_state(0.4)],
                         ids=["random-379", "random-383", "werner"])
def test_optimal_axis_is_first_improvement_scan(rho):
    # on the Werner state every axis ties and only the 1e-15 rule picks one;
    # the scalar patch geometry may differ from the batched one in the last bit
    got, want = quantum_discord(rho).optimal_axis, first_improvement_axis(rho)
    assert abs(got.theta - want.theta) < 1e-12
    assert abs(got.phi - want.phi) < 1e-12


def test_discord_matches_luo_on_rotated_bell_diagonal_states():
    # unequal |c_i| make one axis optimal; local unitaries move it off the grid
    rng = np.random.default_rng(373)
    checked = 0
    while checked < 6:
        c = rng.uniform(-1, 1, 3)
        mags = np.sort(np.abs(c))
        bell = (np.eye(4) + sum(x * np.kron(s, s) for x, s in zip(c, PAULI))) / 4
        if np.linalg.eigvalsh(bell).min() < 0.02 or mags[2] - mags[1] < 0.1:
            continue
        ua, ub = haar_unitary(rng), haar_unitary(rng)
        u = np.kron(ua, ub)
        rho = u @ bell @ u.conj().T
        mutual, discord, k = luo_discord(c)
        report = quantum_discord(rho)
        assert report.mutual_info == pytest.approx(mutual, abs=1e-9)
        assert report.discord == pytest.approx(discord, abs=1e-9)
        t, f = report.optimal_axis
        found = np.array([math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)])
        want = bloch_rotation(ub)[:, k]
        assert math.acos(min(1.0, abs(float(found @ want)))) < 1e-3
        checked += 1


@pytest.mark.parametrize("polar", [0.02, 0.05, math.pi - 0.02])
def test_discord_matches_luo_with_optimal_axis_near_a_pole(polar):
    # B's optimal axis (the rotated z axis) lies off the coarse grid close to
    # a pole, where a step in azimuth alone barely moves the axis
    c = (0.2, -0.3, 0.6)
    azimuth = 4.0
    m_dot_sigma = -math.sin(azimuth) * PAULI[0] + math.cos(azimuth) * PAULI[1]
    ub = math.cos(polar / 2) * np.eye(2) - 1j * math.sin(polar / 2) * m_dot_sigma
    ua = haar_unitary(np.random.default_rng(389))
    bell = (np.eye(4) + sum(x * np.kron(s, s) for x, s in zip(c, PAULI))) / 4
    u = np.kron(ua, ub)
    report = quantum_discord(u @ bell @ u.conj().T)
    mutual, discord, k = luo_discord(c)
    assert report.discord == pytest.approx(discord, abs=1e-9)
    assert report.mutual_info == pytest.approx(mutual, abs=1e-9)
    t, f = report.optimal_axis
    found = np.array([math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)])
    assert math.acos(min(1.0, abs(float(found @ bloch_rotation(ub)[:, k])))) < 1e-3


def test_discord_and_mutual_information_are_local_unitary_invariant():
    rng = np.random.default_rng(461)
    for _ in range(4):
        rho = random_density(rng, 4)
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        moved = u @ rho @ u.conj().T
        before, after = quantum_discord(rho), quantum_discord(moved)
        assert after.discord == pytest.approx(before.discord, abs=1e-9)
        assert after.mutual_info == pytest.approx(before.mutual_info, abs=1e-9)
        assert mutual_information(moved) == pytest.approx(mutual_information(rho), abs=1e-9)


def test_discord_vanishes_on_classical_quantum_states():
    # sum_i p_i rho_A^i x |b_i><b_i| with B classical in a random basis: measuring
    # B in that basis disturbs nothing, so the minimizer must find it
    rng = np.random.default_rng(467)
    for _ in range(4):
        basis = haar_unitary(rng)
        weights = rng.dirichlet(np.ones(2))
        rho = sum(w * np.kron(random_density(rng, 2), np.outer(b, b.conj()))
                  for w, b in zip(weights, basis.T))
        report = quantum_discord(rho)
        assert abs(report.discord) <= 1e-9
        assert report.mutual_info > 1e-3


@pytest.mark.parametrize("resolution", [-1.0, 0.0, math.nan, math.inf])
def test_discord_rejects_bad_axis_resolution(resolution):
    with pytest.raises(ValueError, match="axis_resolution"):
        quantum_discord(werner_state(0.5), axis_resolution=resolution)


def test_discord_report_internal_consistency():
    rng = np.random.default_rng(347)
    for _ in range(5):
        rho = random_density(rng, 4)
        report = quantum_discord(rho)
        total = mutual_information(rho)
        assert report.mutual_info == pytest.approx(total, abs=1e-12)
        assert report.discord == pytest.approx(
            report.mutual_info - report.classical_corr, abs=1e-12)
        assert report.discord >= -1e-9
        assert report.classical_corr >= -1e-9
        assert report.discord <= report.mutual_info + 1e-9


def test_analytic_curve_shape():
    assert werner_discord_analytic(0.0) == pytest.approx(0.0, abs=1e-12)
    assert werner_discord_analytic(1.0) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(0, 1, 41)
    values = [werner_discord_analytic(p) for p in grid]
    assert all(b - a > -1e-12 for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError, match="p"):
        werner_discord_analytic(1.5)


@pytest.mark.parametrize("p, inside", [(-1e-12, 0.0), (1 + 1e-12, 1.0)])
def test_p_range_slack_is_one_policy(p, inside):
    # werner_state, classify_werner and the analytic curve clamp the same
    # rounding-size excursions and reject the same larger ones
    assert np.array_equal(werner_state(p), werner_state(inside))
    assert classify_werner(p) == classify_werner(inside)
    assert werner_discord_analytic(p) == werner_discord_analytic(inside)
    beyond = inside + math.copysign(2 * RANGE_SLACK, p - inside)
    for fn in (werner_state, classify_werner, werner_discord_analytic):
        with pytest.raises(ValueError, match="p must lie in"):
            fn(beyond)
