"""Dense complex linear algebra for one- and two-qubit states.

Matrices are plain complex128 ndarrays; instead of wrapping them in classes,
the physics invariants (hermiticity, unit trace, positivity) are checked at
function boundaries.  All entropies are in bits.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "RANGE_SLACK",
    "clamp_to_range",
    "dagger",
    "kron",
    "partial_trace",
    "entropy_bits",
    "shannon_entropy",
    "von_neumann_entropy",
    "validate_density_matrix",
    "validate_density_matrices",
    "validate_probabilities",
]

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# how far outside its interval a parameter (p, delta, an angle) may stray and
# still be clamped back in rather than rejected
RANGE_SLACK = 1e-9

_PROB_SUM_TOL = 1e-10
_ENTROPY_CUTOFF = 1e-15


def clamp_to_range(value, lo: float, hi: float, name: str):
    """Clamp a scalar or an array into [lo, hi], rejecting non-finite values
    and values more than RANGE_SLACK outside; scalars come back as float."""
    if np.ndim(value) == 0:
        v = float(value)
        out = min(max(v, lo), hi)
        if not abs(out - v) <= RANGE_SLACK:
            raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
        return out
    v = np.asarray(value, dtype=float)
    out = np.clip(v, lo, hi)
    bad = ~(np.abs(out - v) <= RANGE_SLACK)
    if bad.any():
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {v[bad][0]!r}")
    return out


def _as_square(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Complex ndarray of one 2x2 or 4x4 matrix, or with stacked=True of a
    stack (..., d, d) of them."""
    m = np.asarray(a, dtype=complex)
    if (m.ndim < 2 if stacked else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[-1] not in (2, 4):
        raise ValueError(f"{name} must be 2x2 or 4x4, got {m.shape[-1]}x{m.shape[-1]}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose of one matrix, or of each matrix in a stack (..., d, d)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """Tensor product of single-qubit operators, left factor = first qubit.

    Stacks (..., 2, 2) broadcast against each other and give (..., 4, 4).
    """
    ma = _as_square(a, "left factor", stacked=True)
    mb = _as_square(b, "right factor", stacked=True)
    if ma.shape[-2:] != (2, 2) or mb.shape[-2:] != (2, 2):
        raise ValueError("kron expects two 2x2 matrices")
    out = ma[..., :, None, :, None] * mb[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def _check_density(m: np.ndarray, name: str) -> np.ndarray:
    # one matrix or a stack; a failure names the worst matrix's miss
    herm = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if herm > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian (deviation {herm:.3e})")
    tr = np.trace(m, axis1=-2, axis2=-1)
    miss = abs(tr - 1)
    # a plain comparison for one matrix: the discord scan validates thousands
    # of single states per call
    if (miss.max() if miss.ndim else miss) > TRACE_TOL:
        raise ValueError(f"{name} has trace {np.ravel(tr)[np.argmax(miss)]}, expected 1")
    lo = np.linalg.eigvalsh(m).min()
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {lo:.3e}")
    return m


def validate_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Check hermiticity, unit trace and positivity; return the ndarray."""
    return _check_density(_as_square(rho, name), name)


def validate_density_matrices(stack, name: str = "state") -> np.ndarray:
    """validate_density_matrix for a stack (..., d, d) of states in one
    batched check; a single matrix is the stack of shape ()."""
    return _check_density(_as_square(stack, name, stacked=True), name)


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduce a two-qubit density matrix to the marginal of one qubit.

    keep="A" traces out the second qubit, keep="B" the first.
    """
    m = validate_density_matrix(rho, "two-qubit state")
    if m.shape != (4, 4):
        raise ValueError("partial trace expects a 4x4 state")
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    r = m.reshape(2, 2, 2, 2)
    out = np.einsum("ikjk->ij", r) if keep == "A" else np.einsum("kikj->ij", r)
    return validate_density_matrix(out, "marginal")


def validate_probabilities(vec, floor: float = -1e-12) -> np.ndarray:
    """Clamp tiny negative entries to zero and check normalization.

    vec is one distribution or a stack (..., n) of them; a failure names the
    worst one.
    """
    p = np.asarray(vec, dtype=float)
    if p.ndim < 1 or p.shape[-1] not in (2, 4):
        raise ValueError(f"probability vector must have length 2 or 4, got shape {p.shape}")
    if p.min() < floor:
        raise ValueError(f"probability {p.min():.3e} below tolerance")
    p = np.where(p < 0, 0.0, p)
    sums = p.sum(axis=-1)
    miss = np.abs(sums - 1)
    if miss.max() > _PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {np.ravel(sums)[np.argmax(miss)]}, expected 1")
    return p


def entropy_bits(weights) -> np.ndarray:
    """-sum w log2 w over the last axis of weights, in bits; weights at or
    below _ENTROPY_CUTOFF contribute zero."""
    w = np.asarray(weights, dtype=float)
    return -np.sum(w * np.log2(np.where(w > _ENTROPY_CUTOFF, w, 1.0)), axis=-1)


def shannon_entropy(probs) -> float:
    """H(p) = -sum p_i log2 p_i; zero entries contribute zero."""
    return float(entropy_bits(validate_probabilities(probs)))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum lambda_i log2 lambda_i over the spectrum."""
    m = validate_density_matrix(rho)
    return float(entropy_bits(np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)))
