import math

import numpy as np
import pytest

from qgame.discord import (
    BlochDirection,
    conditional_entropy,
    measurement_projectors,
    mutual_information,
    quantum_discord,
    werner_discord_analytic,
)
from qgame.qmat import RANGE_SLACK, von_neumann_entropy
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
