import math

import numpy as np
import pytest

from fracext.operators import (
    SPACING_RANGE,
    DefectiveOperatorError,
    LinearOperator,
    apply,
    build_fourier_multiplier,
    build_laplacian_1d,
    resolvent_solve,
    spectral_decompose,
)


def test_laplacian3_eigenvalues():
    L = build_laplacian_1d(3, 1.0, "dirichlet")
    eig = np.sort(spectral_decompose(L).eigenvalues.real)
    # closed form 2 cos(k pi/4) - 2
    ref = np.sort([2 * math.cos(k * math.pi / 4) - 2 for k in (1, 2, 3)])
    assert np.allclose(eig, ref, atol=1e-12)
    assert np.allclose(sorted(eig), sorted([-2 - math.sqrt(2), -2.0, -2 + math.sqrt(2)]),
                       atol=1e-12)


def test_laplacian_periodic_2():
    L = build_laplacian_1d(2, 1.0, "periodic")
    eig = np.sort(np.linalg.eigvals(L.matrix()).real)
    assert np.allclose(eig, [-4.0, 0.0], atol=1e-12)


def test_laplacian_spacing_scaling():
    a = build_laplacian_1d(2, 1.0, "dirichlet").matrix()
    b = build_laplacian_1d(2, 0.5, "dirichlet").matrix()
    assert np.allclose(b, 4.0 * a)


def test_laplacian_validation():
    with pytest.raises(ValueError):
        build_laplacian_1d(1, 1.0)
    with pytest.raises(ValueError):
        build_laplacian_1d(3, -1.0)
    with pytest.raises(ValueError):
        build_laplacian_1d(3, 1.0, "absorbing")


def test_fourier_multiplier_cubic_symbol():
    op = build_fourier_multiplier(lambda xi: 1j * xi ** 3, [-1.0, 0.0, 1.0])
    assert np.allclose(op.data, [-1j, 0.0, 1j])


def test_fourier_multiplier_heat_symbol():
    op = build_fourier_multiplier(lambda xi: -xi ** 2, [1.0, 2.0])
    assert np.allclose(op.data, [-1.0, -4.0])


def test_fourier_multiplier_rejects_positive_real_part():
    with pytest.raises(ValueError):
        build_fourier_multiplier(lambda xi: xi ** 2, [1.0, 2.0])


def test_spectral_decompose_diagonal():
    op = LinearOperator("diagonal", [-1.0, -2.0])
    dec = spectral_decompose(op)
    assert np.allclose(dec.eigenvalues, [-1.0, -2.0])
    assert np.allclose(dec.basis, np.eye(2))


def test_spectral_decompose_hermitian_residual(rng):
    m = rng.normal(size=(8, 8))
    A = LinearOperator("dense", -(m @ m.T) - 0.3 * np.eye(8))
    dec = spectral_decompose(A)
    recon = dec.basis @ np.diag(dec.eigenvalues) @ dec.inverse_basis
    assert np.linalg.norm(recon - A.matrix(), 2) <= 1e-10 * A.norm()
    assert np.max(np.abs(dec.eigenvalues.imag)) < 1e-12
    assert np.linalg.norm(dec.basis @ dec.basis.conj().T - np.eye(8), 2) < 1e-12


def test_spectral_decompose_snaps_a_dense_zero_mode():
    # the periodic second difference through the dense eigensolver: eigh
    # leaves ~1e-16 on the zero mode, cached as an exact zero
    n = 16
    m = -2.0 * np.eye(n) + np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    A = LinearOperator("dense", m)
    lam = spectral_decompose(A).eigenvalues
    assert np.count_nonzero(lam == 0.0) == 1
    assert np.max(np.abs(np.sort(lam.real) - np.linalg.eigvalsh(m))) <= 1e-12 * 4.0


def test_spectral_decompose_defective():
    jordan = LinearOperator("dense", np.array([[-1.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(DefectiveOperatorError):
        spectral_decompose(jordan)


def test_apply_and_resolvent():
    op = LinearOperator("diagonal", [-1.0, -2.0])
    assert np.allclose(apply(op, [1.0, 1.0]), [-1.0, -2.0])
    v = resolvent_solve(LinearOperator("diagonal", [-1.0]), 1.0, [1.0])
    assert abs(v[0] - 0.5) < 1e-15


def test_resolvent_bound_self_adjoint(rng, laplacian8):
    f = rng.normal(size=8)
    for lam in (0.1, 1.0, 10.0):
        x = resolvent_solve(laplacian8, lam, f)
        assert lam * np.linalg.norm(x) <= (1.0 + 1e-12) * np.linalg.norm(f)


def test_resolvent_residual(laplacian8, rng):
    f = rng.normal(size=8)
    lam = 0.7 + 0.3j
    x = resolvent_solve(laplacian8, lam, f)
    res = lam * x - apply(laplacian8, x) - f
    assert np.linalg.norm(res) <= 1e-12 * (abs(lam) + laplacian8.norm()) * np.linalg.norm(x)


def test_resolvent_array_matches_scalar(laplacian8, rng):
    f = rng.normal(size=8)
    lam = np.array([0.3, 2.0 + 1.5j, 17.0, 1e4])
    for op in (laplacian8, LinearOperator("diagonal", -np.arange(1.0, 9.0) + 0.5j)):
        got = resolvent_solve(op, lam, f)
        assert got.shape == (lam.size, 8)
        for k in range(lam.size):
            assert np.array_equal(got[k], resolvent_solve(op, lam[k], f))
    with pytest.raises(np.linalg.LinAlgError):
        resolvent_solve(LinearOperator("diagonal", [-1.0, -2.0]), np.array([1.0, -2.0]), [1.0, 1.0])


def test_resolvent_identity(laplacian8, rng):
    f = rng.normal(size=8)
    lam, mu = 0.6, 2.1
    lhs = resolvent_solve(laplacian8, lam, f) - resolvent_solve(laplacian8, mu, f)
    rhs = (mu - lam) * resolvent_solve(laplacian8, lam, resolvent_solve(laplacian8, mu, f))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


def test_spectral_oracle_fractional_eigenvalues(laplacian8, rng):
    from fracext.funcalc import spectral_power_oracle
    dec = spectral_decompose(laplacian8)
    k = 2
    v = dec.basis[:, k]
    lam = -dec.eigenvalues[k].real
    out = spectral_power_oracle(laplacian8, 0.37, v).value
    assert np.linalg.norm(out - lam ** 0.37 * v) <= 1e-9 * lam ** 0.37


def test_dimension_cap():
    with pytest.raises(ValueError):
        LinearOperator("diagonal", [-1.0] * 65)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("h", [1.0, 0.01, *SPACING_RANGE])
@pytest.mark.parametrize("n", range(2, 65))
def test_laplacian_closed_form_spectrum(n, h, boundary):
    # the decomposition attached at build time, checked against the matrix
    # and against a dense eigensolver; build_laplacian_1d does not check it,
    # and the basis does not depend on h, so every n, both boundaries and
    # both ends of the spacing range cover its whole domain
    A = build_laplacian_1d(n, h, boundary)
    dec = spectral_decompose(A)
    V, lam = dec.basis, dec.eigenvalues
    scale = A.norm()
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-13
    assert np.array_equal(dec.inverse_basis, V.conj().T)
    recon = (V * lam) @ dec.inverse_basis
    assert np.linalg.norm(recon - A.matrix(), 2) <= 1e-12 * scale
    # in units of ||A||: at the smallest h the eigensolver's own rescaling
    # overflows on the eigenvalue -4/h^2, the largest finite float
    ref = np.linalg.eigvalsh(A.matrix() / scale)
    assert np.max(np.abs(np.sort(lam.real) / scale - ref)) <= 1e-13
    assert not lam.imag.any() and not V.imag.any()
    if boundary == "periodic":
        assert np.count_nonzero(lam == 0.0) == 1


def test_small_spectra_are_not_snapped_to_zero():
    # the snap to zero is relative to max |lambda|: a spectrum of size 1e-13
    # (small diagonal entries, or a Laplacian with h = 1e7) keeps its values
    for A in (LinearOperator("diagonal", [-1e-13, -2e-13]), build_laplacian_1d(4, 1e7)):
        lam = spectral_decompose(A).eigenvalues
        assert np.all(lam.real < 0) and not lam.imag.any()
        assert np.max(np.abs(np.sort(lam.real) - np.linalg.eigvalsh(A.matrix()))) <= 1e-26


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_laplacian_norm_is_the_decomposition_checks(boundary, monkeypatch):
    # norm() returns the 2-norm computed once at build time, bitwise,
    # without a second SVD
    A = build_laplacian_1d(64, 0.05, boundary)
    expected = np.linalg.norm(A.matrix(), 2)
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(a) or norm(*a, **k))
    assert A.norm() == expected
    assert calls == []
