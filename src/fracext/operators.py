"""Concrete matrix realizations of the generator A, plus the spectral oracle.

Desk scale: dense operators are capped at dimension 64 so every
decomposition is a direct eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearOperator",
    "SpectralDecomposition",
    "DefectiveOperatorError",
    "build_laplacian_1d",
    "build_fourier_multiplier",
    "spectral_decompose",
    "apply",
    "resolvent_solve",
]

MAX_DIMENSION = 64


class DefectiveOperatorError(RuntimeError):
    """Eigendecomposition failed to reconstruct the operator."""


@dataclass
class SpectralDecomposition:
    eigenvalues: np.ndarray
    basis: np.ndarray
    inverse_basis: np.ndarray


@dataclass
class LinearOperator:
    """A dense matrix or a diagonal spectral multiplier."""

    kind: str
    data: np.ndarray
    dimension: int = 0
    _decomposition: SpectralDecomposition | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "dense":
            m = np.asarray(self.data, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("dense operator needs a square matrix")
            self.data = m
            self.dimension = m.shape[0]
        elif self.kind == "diagonal":
            d = np.asarray(self.data, dtype=complex).reshape(-1)
            self.data = d
            self.dimension = d.shape[0]
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.dimension > MAX_DIMENSION:
            raise ValueError(f"dimension {self.dimension} exceeds desk-scale cap {MAX_DIMENSION}")

    def matrix(self) -> np.ndarray:
        if self.kind == "dense":
            return self.data
        return np.diag(self.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix(), 2))

    @property
    def is_hermitian(self) -> bool:
        m = self.matrix()
        return bool(np.allclose(m, m.conj().T, rtol=1e-12, atol=1e-12))


def build_laplacian_1d(n: int, h: float, boundary: str = "dirichlet") -> LinearOperator:
    """Second-difference matrix on n interior points with spacing h."""
    if n < 2:
        raise ValueError("need n >= 2")
    if h <= 0:
        raise ValueError("need h > 0")
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = -2.0
        if i > 0:
            m[i, i - 1] = 1.0
        if i < n - 1:
            m[i, i + 1] = 1.0
    if boundary == "periodic":
        m[0, n - 1] += 1.0
        m[n - 1, 0] += 1.0
    elif boundary != "dirichlet":
        raise ValueError(f"unknown boundary {boundary!r}")
    return LinearOperator("dense", m / h ** 2)


def build_fourier_multiplier(symbol, modes) -> LinearOperator:
    """Diagonal operator with entries symbol(xi_k) for the given modes.

    Entries with positive real part violate the tempered-generator
    contract and are rejected.
    """
    entries = np.array([complex(symbol(float(xi))) for xi in modes])
    scale = max(float(np.max(np.abs(entries))), 1.0)
    if np.any(entries.real > 1e-12 * scale):
        bad = entries[entries.real > 1e-12 * scale]
        raise ValueError(f"symbol produced entries with positive real part: {bad}")
    entries = entries - 1j * 0  # keep complex dtype
    entries.real[np.abs(entries.real) <= 1e-12 * scale] = 0.0
    return LinearOperator("diagonal", entries)


def spectral_decompose(op: LinearOperator) -> SpectralDecomposition:
    """Eigendecomposition A = V diag(eigenvalues) V^{-1}, cached on the operator."""
    if op._decomposition is not None:
        return op._decomposition
    if op.kind == "diagonal":
        n = op.dimension
        dec = SpectralDecomposition(op.data.copy(), np.eye(n, dtype=complex),
                                    np.eye(n, dtype=complex))
        op._decomposition = dec
        return dec
    m = op.matrix()
    if op.is_hermitian:
        w, v = np.linalg.eigh(m)
        eig = w.astype(complex)
        basis = v.astype(complex)
        inv = basis.conj().T
    else:
        eig, basis = np.linalg.eig(m)
        try:
            inv = np.linalg.inv(basis)
        except np.linalg.LinAlgError as exc:
            raise DefectiveOperatorError("eigenvector matrix is singular") from exc
    recon = basis @ np.diag(eig) @ inv
    scale = max(float(np.linalg.norm(m, 2)), 1e-300)
    if float(np.linalg.norm(recon - m, 2)) > 1e-10 * scale:
        raise DefectiveOperatorError("reconstruction residual above 1e-10 * ||A||")
    dec = SpectralDecomposition(eig, basis, inv)
    op._decomposition = dec
    return dec


def apply(op: LinearOperator, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex).reshape(-1)
    if op.kind == "diagonal":
        return op.data * f
    return op.data @ f


def resolvent_solve(op: LinearOperator, lam, f) -> np.ndarray:
    """(lam - A)^{-1} f; an array of lam gives one row per entry (one
    broadcast division for a diagonal A, one LU solve per lam otherwise)."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    lam = np.asarray(lam, dtype=complex)
    if op.kind == "diagonal":
        denom = lam[..., None] - op.data
        if np.any(denom == 0.0):
            raise np.linalg.LinAlgError("lam is in the spectrum")
        return f / denom
    rows = [np.linalg.solve(lk * np.eye(op.dimension) - op.data, f)
            for lk in lam.reshape(-1).tolist()]
    return rows[0] if lam.ndim == 0 else np.stack(rows).reshape(lam.shape + (-1,))
