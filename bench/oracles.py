"""Independent oracles for the benchmark's correctness checks.

Nothing here imports qgame: every reference value is computed from the
physics directly, with vectorized numpy, so that a defect in the package
cannot hide in its own oracle.  These functions run only outside timed
regions.

Conventions follow the package: a move (theta, phi) is the unitary
[[e^{i phi} cos(theta/2), sin(theta/2)], [-sin(theta/2), e^{-i phi} cos(theta/2)]],
the shared state is p|Phi><Phi| + (1-p)/4 I with |Phi> = (|00> + i|11>)/sqrt(2),
and outcomes are ordered 00, 01, 10, 11.
"""

from __future__ import annotations

import math

import numpy as np

GAP_TOLERANCE = 1e-9
PAYOFF_TOLERANCE = 1e-10
DISCORD_TOLERANCE = 1e-9
# the minimizer refines to 1e-6 rad; 1e-3 rad leaves room for flat optima
AXIS_TOLERANCE = 1e-3
COARSE_STEPS = 48

SEPARABLE_BOUND = 1.0 / 3.0
NONLOCAL_BOUND = 1.0 / math.sqrt(2.0)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# ---------------------------------------------------------------- payoffs

def bell_overlaps(ta, fa, tb, fb) -> np.ndarray:
    """Outcome weights of the pure Bell component in the fully entangled
    basis (delta = pi/2); shape (..., 4)."""
    c1, s1 = np.cos(np.asarray(ta) / 2), np.sin(np.asarray(ta) / 2)
    c2, s2 = np.cos(np.asarray(tb) / 2), np.sin(np.asarray(tb) / 2)
    fa, fb = np.asarray(fa, dtype=float), np.asarray(fb, dtype=float)
    return np.stack(np.broadcast_arrays(
        (np.cos(fa + fb) * c1 * c2) ** 2,
        (np.cos(fa) * c1 * s2 - np.sin(fb) * s1 * c2) ** 2,
        (np.sin(fa) * c1 * s2 - np.cos(fb) * s1 * c2) ** 2,
        (np.sin(fa + fb) * c1 * c2 + s1 * s2) ** 2,
    ), axis=-1)


def _flat(table) -> np.ndarray:
    t = np.asarray(table, dtype=float)
    return t.reshape(t.shape[:-2] + (4,))


def _col(x) -> np.ndarray:
    return np.asarray(x, dtype=float)[..., None]


def closed_form_payoffs(table_a, table_b, p, delta, ta, fa, tb, fb):
    """Closed-form route: both players' payoffs at any delta.  Lowering delta
    from pi/2 mixes each outcome weight with its double-flip partner in
    proportion (1 +- sin delta)/2.  Every argument broadcasts; tables are
    (..., 2, 2)."""
    g = bell_overlaps(ta, fa, tb, fb)
    w, p = _col(np.sin(delta)), _col(p)
    probs = p * ((1 + w) * g + (1 - w) * g[..., ::-1]) / 2 + (1 - p) / 4
    return (probs * _flat(table_a)).sum(-1), (probs * _flat(table_b)).sum(-1)


def product_basis_payoffs(table_a, table_b, p, ta, fa, tb, fb):
    """Special case delta = 0, written in the equal/unequal-outcome form:
    00 and 11 share one weight, 01 and 10 the complementary one."""
    c1, s1 = np.cos(np.asarray(ta) / 2), np.sin(np.asarray(ta) / 2)
    c2, s2 = np.cos(np.asarray(tb) / 2), np.sin(np.asarray(tb) / 2)
    cross = 0.5 * np.sin(ta) * np.sin(tb) * np.sin(np.add(fa, fb))
    same = c1 ** 2 * c2 ** 2 + s1 ** 2 * s2 ** 2 + cross
    out = []
    for t in (_flat(table_a), _flat(table_b)):
        out.append(p / 2 * ((t[..., 0] + t[..., 3]) * same
                            + (t[..., 1] + t[..., 2]) * (1 - same))
                   + (1 - p) / 4 * t.sum(-1))
    return out[0], out[1]


def entangled_basis_payoffs(table_a, table_b, p, ta, fa, tb, fb):
    """Special case delta = pi/2: the Bell overlaps with a uniform floor."""
    probs = _col(p) * bell_overlaps(ta, fa, tb, fb) + (1 - _col(p)) / 4
    return (probs * _flat(table_a)).sum(-1), (probs * _flat(table_b)).sum(-1)


def pure_nash_labels(table_a, table_b) -> str:
    """Weak pure equilibria of a 2x2 game as the CLI prints them ("CD DC")."""
    a, b = np.asarray(table_a, dtype=float), np.asarray(table_b, dtype=float)
    out = [("CD"[r] + "CD"[c]) for r in (0, 1) for c in (0, 1)
           if a[r, c] >= a[1 - r, c] and b[r, c] >= b[r, 1 - c]]
    return " ".join(out)


# ---------------------------------------------------------------- Nash

def deviation_gaps(table_a, table_b, p, delta, profile, grid):
    """Closed-form gaps of every grid deviation, one array per player.

    Positive means the deviation hurts the deviator, as in the package.
    """
    ta, fa, tb, fb = profile
    n_theta, n_phi = grid
    th, ph = np.meshgrid(np.linspace(0.0, math.pi, n_theta),
                         np.linspace(0.0, math.pi / 2, n_phi), indexing="ij")
    ref_a, ref_b = closed_form_payoffs(table_a, table_b, p, delta, ta, fa, tb, fb)
    alt_a = closed_form_payoffs(table_a, table_b, p, delta, th, ph, tb, fb)[0]
    alt_b = closed_form_payoffs(table_a, table_b, p, delta, ta, fa, th, ph)[1]
    return ref_a - alt_a, ref_b - alt_b


def single_gap(table_a, table_b, p, delta, profile, player, theta, phi) -> float:
    """Closed-form gap of one deviation by `player` ("A" or "B")."""
    ta, fa, tb, fb = profile
    ref = closed_form_payoffs(table_a, table_b, p, delta, ta, fa, tb, fb)
    if player == "A":
        return float(ref[0] - closed_form_payoffs(table_a, table_b, p, delta,
                                                  theta, phi, tb, fb)[0])
    return float(ref[1] - closed_form_payoffs(table_a, table_b, p, delta,
                                              ta, fa, theta, phi)[1])


def nash_certificate(table_a, table_b, p, delta, profile, grid, verdict) -> tuple[list, float]:
    """Check a reported Nash verdict; return (errors, route drift).

    `verdict` holds is_equilibrium, min_gap and optionally worst_player,
    worst_theta and worst_phi.  The checks hold for a grid scan and for any
    exact best response alike:
      * min_gap equals the closed-form gap of the reported worst deviation;
      * min_gap is no larger than the closed-form grid minimum;
      * is_equilibrium matches the sign of min_gap.
    """
    errors = []
    min_gap = verdict["min_gap"]
    if verdict["is_equilibrium"] != (min_gap >= -GAP_TOLERANCE):
        errors.append(f"is_equilibrium={verdict['is_equilibrium']} but min_gap={min_gap:.3e}")
    gaps_a, gaps_b = deviation_gaps(table_a, table_b, p, delta, profile, grid)
    grid_min = float(min(gaps_a.min(), gaps_b.min()))
    if min_gap > grid_min + GAP_TOLERANCE:
        errors.append(f"min_gap {min_gap:.12g} above closed-form grid minimum {grid_min:.12g}")
    drift = 0.0
    if "worst_player" in verdict:
        player = verdict["worst_player"]
        if player not in ("A", "B"):
            errors.append(f"worst_player {player!r}")
        else:
            gap = single_gap(table_a, table_b, p, delta, profile, player,
                             verdict["worst_theta"], verdict["worst_phi"])
            drift = abs(gap - min_gap)
            if drift > GAP_TOLERANCE:
                errors.append(f"min_gap {min_gap:.12g} but worst deviation gaps {gap:.12g}")
    return errors, drift


def werner_region(p: float) -> str:
    if p <= SEPARABLE_BOUND:
        return "separable"
    return "entangled_local" if p <= NONLOCAL_BOUND else "nonlocal"


# ---------------------------------------------------------------- discord

def _entropy_bits(probs) -> float:
    q = np.asarray(probs, dtype=float)
    q = q[q > 1e-15]
    return float(-np.sum(q * np.log2(q)))


def bell_diagonal_spectrum(c) -> np.ndarray:
    """Eigenvalues of (I + sum_j c_j sigma_j x sigma_j)/4."""
    c1, c2, c3 = c
    return np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                     1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4


def luo_discord(c) -> tuple[float, float]:
    """(mutual information, discord) of a Bell-diagonal state with
    correlations c, after Luo, PRA 77, 042303 (2008).  Both marginals are
    maximally mixed, and the best projective measurement is along the axis
    of the largest |c_j|."""
    mutual = 2.0 - _entropy_bits(bell_diagonal_spectrum(c))
    cmax = max(abs(x) for x in c)
    classical = 1.0 - _entropy_bits([(1 + cmax) / 2, (1 - cmax) / 2])
    return mutual, mutual - classical


def werner_correlations(p: float) -> tuple[float, float, float]:
    """Bell-diagonal correlations of the noisy (|00> + i|11>) state.  A local
    phase gate on qubit B maps it to p|Phi+><Phi+| + (1-p)/4 I, whose
    correlations are (p, -p, p); discord is invariant under that gate."""
    return (p, -p, p)


def werner_matrix(p: float) -> np.ndarray:
    k = np.array([1, 0, 0, 1j]) / math.sqrt(2)
    return p * np.outer(k, k.conj()) + (1 - p) / 4 * np.eye(4)


def bell_diagonal_matrix(c) -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for cj, s in zip(c, PAULI):
        rho = rho + cj * np.kron(s, s)
    return rho / 4


def haar_unitary(rng) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def bloch_rotation(u) -> np.ndarray:
    """SO(3) matrix R with u (n.sigma) u^dagger = (R n).sigma."""
    return np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real for sj in PAULI]
                     for si in PAULI])


def axis_vector(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def coarse_grid_vectors(steps: int = COARSE_STEPS) -> np.ndarray:
    """Unit vectors of the discord minimizer's coarse scan, shape (steps^2, 3)."""
    th = np.linspace(0.0, math.pi, steps)[:, None]
    ph = (np.arange(steps) * (2 * math.pi / steps))[None, :]
    return np.stack(np.broadcast_arrays(np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                        np.cos(th) + 0 * ph), axis=-1).reshape(-1, 3)


def angle_to_grid(n, grid_vectors) -> float:
    """Smallest angle between the measurement +-n and any grid axis."""
    cos = np.abs(grid_vectors @ np.asarray(n)).max()
    return math.acos(min(1.0, float(cos)))


def axis_error(n_found, n_expected) -> float:
    """Angle between two measurement axes, counting n and -n as one."""
    return math.acos(min(1.0, abs(float(np.dot(n_found, n_expected)))))
