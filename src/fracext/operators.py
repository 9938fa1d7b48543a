"""Concrete matrix realizations of the generator A, plus the spectral oracle.

Desk scale: dense operators are capped at dimension 64 so every
decomposition is a direct eigensolve, or a closed form for the 1d
Laplacians.  Products with a dense matrix go through np.einsum, which
never calls BLAS: at this size threaded BLAS saves nothing, and a complex
gemv/gemm at n = 64 (or an eigh at n >= 32) leaves OpenBLAS workers
spinning on idle cores for ~0.1 s after it returns.

spectral_decompose caches the decomposition on the operator, its
eigenvalues snapped once: eigensolver noise of order 1e-16 on a zero mode
would otherwise become e^{a t} overflow at the huge t of half-line
quadrature.  The reconstruction check reads the eigensolver's own output.
"""

from __future__ import annotations

import math
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
    """A = basis diag(eigenvalues) inverse_basis, each real or imaginary part
    of an eigenvalue within 1e-12 max(max |lambda|, 1) of zero snapped to 0."""

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
    _norm: float | None = field(default=None, repr=False)

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
        """The 2-norm, computed once (by the decomposition check if that ran first)."""
        if self._norm is None:
            self._norm = float(np.linalg.norm(self.matrix(), 2))
        return self._norm

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
    op = LinearOperator("dense", m / h ** 2)
    eig, basis = _laplacian_spectrum(n, h, boundary)
    _checked_decomposition(op, eig, basis, basis.conj().T)
    return op


def _laplacian_spectrum(n: int, h: float, boundary: str):
    """Closed-form (eigenvalues ascending, real orthonormal eigenvectors) of
    the second-difference matrix.

    Dirichlet: -(4/h^2) sin^2(k pi / (2(n+1))) with sqrt(2/(n+1)) sin(j k pi/(n+1)),
    k = 1..n.  Periodic: -(4/h^2) sin^2(pi k / n) with the real Fourier basis
    (cos(2 pi j k/n) for k <= n/2, and sin for the partner n - k of each
    0 < k < n/2), so real data stays real as with a real eigensolver; the
    zero mode is exactly 0.  Phases j k are reduced modulo the period in
    integers before scaling.
    """
    j = np.arange(n)
    if boundary == "dirichlet":
        k = np.arange(1, n + 1)
        eig = -(4.0 / h ** 2) * np.sin(k * np.pi / (2 * (n + 1))) ** 2
        phase = np.outer(j + 1, k) % (2 * (n + 1))
        basis = math.sqrt(2.0 / (n + 1)) * np.sin(phase * np.pi / (n + 1))
    else:
        k = np.arange(n)
        freq = np.minimum(k, n - k)
        eig = -(4.0 / h ** 2) * np.sin(freq * np.pi / n) ** 2
        phase = np.outer(j, freq) % n * (2.0 * np.pi / n)
        norm = np.where((freq == 0) | (2 * freq == n), 1.0 / math.sqrt(n), math.sqrt(2.0 / n))
        basis = norm * np.where(k <= n // 2, np.cos(phase), np.sin(phase))
    order = np.argsort(eig, kind="stable")
    return eig[order].astype(complex), basis[:, order].astype(complex)


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
        eye = np.eye(op.dimension, dtype=complex)
        op._decomposition = SpectralDecomposition(_snapped(op.data), eye, eye)
        return op._decomposition
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
    return _checked_decomposition(op, eig, basis, inv)


def _snapped(eig) -> np.ndarray:
    scale = max(float(np.max(np.abs(eig), initial=0.0)), 1.0)
    re, im = (np.where(np.abs(x) <= 1e-12 * scale, 0.0, x) for x in (eig.real, eig.imag))
    return re + 1j * im


def _checked_decomposition(op, eig, basis, inv) -> SpectralDecomposition:
    """Check V diag(eig) V^{-1} against the matrix of op and cache it on op,
    eig snapped (op.norm() keeps the 2-norm the check computes).  When all
    four are real, the reconstruction and its residual are formed in float64."""
    parts = (op.matrix(), eig, basis, inv)
    m, e, v, w = parts if any(np.imag(x).any() for x in parts) else (x.real for x in parts)
    recon = np.einsum("ij,jk->ik", v * e, w)
    scale = max(op.norm(), 1e-300)
    if float(np.linalg.norm(recon - m, 2)) > 1e-10 * scale:
        raise DefectiveOperatorError("reconstruction residual above 1e-10 * ||A||")
    op._decomposition = SpectralDecomposition(_snapped(eig), basis, inv)
    return op._decomposition


def apply(op: LinearOperator, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex).reshape(-1)
    if op.kind == "diagonal":
        return op.data * f
    return np.einsum("ij,j->i", op.data, f)


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
