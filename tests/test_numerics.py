import math

import numpy as np
import pytest

from steerkit import numerics
from steerkit.numerics import (NumericsError, kron, nullity_with_spectrum,
                               nullspace_with_spectrum,
                               principal_angle_distance, projection_residual,
                               vec)

from single_views import nullspace


def test_nullspace_identity_is_trivial():
    assert nullspace(np.eye(4)).shape == (4, 0)


def test_nullspace_zero_map_is_everything():
    basis = nullspace(np.zeros((3, 3)))
    assert basis.shape == (3, 3)
    np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-14)


def test_nullspace_rank_one_diagonal():
    basis = nullspace(np.array([[1.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(basis, [[0.0], [1.0]], atol=1e-15)


def test_nullspace_sign_fix_deterministic():
    a = np.array([[1.0, 1.0, 0.0]])
    b1 = nullspace(a)
    b2 = nullspace(a.copy())
    np.testing.assert_array_equal(b1, b2)
    for k in range(b1.shape[1]):
        col = b1[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-8 * np.abs(col).max())]
        assert lead > 0


def test_rank_nullity_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = rng.integers(1, 13, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        a = (rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
             if r else np.zeros((m, n)))
        basis = nullspace(a)
        assert basis.shape[1] == n - r
        if basis.shape[1]:
            norm_a = np.linalg.norm(a, 2)
            assert np.linalg.norm(a @ basis, 2) <= 10 * 1e-9 * max(norm_a, 1e-30)


def test_nullspace_complex():
    a = np.array([[1.0, 1j]])
    basis = nullspace(a)
    assert basis.shape == (2, 1)
    assert np.linalg.norm(a @ basis) < 1e-14
    # first significant component rotated to positive real
    assert abs(basis[0, 0].imag) < 1e-14 and basis[0, 0].real > 0


def test_nullspace_rejects_nonfinite_and_bad_tol():
    with pytest.raises(NumericsError):
        nullspace(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _rank_deficient(rng, m, n, rank, dtype):
    def draw(shape):
        if dtype == complex:
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return rng.normal(size=shape)
    return draw((m, rank)) @ draw((rank, n))


def test_nullspace_spectrum_split(monkeypatch):
    a = np.diag([5.0, 3.0, 1e-14])
    basis, kept, dropped = nullspace_with_spectrum(a)
    assert basis.shape == (3, 1)
    np.testing.assert_allclose(kept, [5.0, 3.0])
    assert dropped[0] <= 1e-13
    # Stacks at least twice as tall as wide are solved through their R
    # factor; the spectrum and the basis are the bits of the thin SVD of the
    # whole stack.
    rng = np.random.default_rng(5)
    n, rank = 40, 29
    tall = []
    for dtype in (float, complex):
        for ratio in (2, 3, 4):
            a = _rank_deficient(rng, ratio * n, n, rank, dtype)
            basis, kept, dropped = nullspace_with_spectrum(a)
            tall.append((a, np.linalg.svd(np.linalg.qr(a, mode="r"),
                                          compute_uv=False)))
            _, s, vh = np.linalg.svd(a, full_matrices=False)
            null = s <= numerics.NULLSPACE_TOL * s[0]
            assert null.sum() == n - rank
            expect = numerics._fix_column_signs(vh[rank:][::-1].conj().T)
            assert basis.dtype == expect.dtype
            np.testing.assert_array_equal(basis, expect)
            np.testing.assert_array_equal(kept, s[~null])
            np.testing.assert_array_equal(dropped, s[null])
    # A stack less than twice as tall keeps the direct SVD.
    def no_qr(*args, **kwargs):
        raise AssertionError("QR taken for a stack at m/n = 1.5, or a count")
    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for dtype in (float, complex):
        basis, kept, dropped = nullspace_with_spectrum(
            _rank_deficient(rng, 60, n, rank, dtype))
        assert basis.shape == (n, n - rank) and kept.size == rank
    # The count takes no QR step of its own: gesdd factors the tall stacks
    # itself, and their spectra are the bits of the values-only SVD of R.
    for a, s in tall:
        k, kept, dropped = nullity_with_spectrum(a)
        assert k == n - rank
        np.testing.assert_array_equal(np.concatenate([kept, dropped]), s)


def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = kron(n, np.eye(2))
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = 1.0
    np.testing.assert_array_equal(out, expect)
    # Stacks pair their matrices over broadcast leading axes; each slice is
    # np.kron of its pair bit for bit.
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 1, 2, 4)) + 1j * rng.normal(size=(3, 1, 2, 4))
    b = rng.normal(size=(5, 3, 2))
    out = kron(a, b)
    assert out.shape == (3, 5, 6, 8) and out.flags.c_contiguous
    for i in range(3):
        for k in range(5):
            np.testing.assert_array_equal(out[i, k], np.kron(a[i, 0], b[k]))
    out = kron(b[:, None], b.swapaxes(-1, -2)[0, ::-1])
    assert out.flags.c_contiguous
    out = out[:, 0]
    for k in range(5):
        np.testing.assert_array_equal(out[k], np.kron(b[k], b[0].T[::-1]))
    with pytest.raises(NumericsError):
        kron(np.ones(3), np.eye(2))
    with pytest.raises(NumericsError):
        kron(np.full((2, 2, 2), np.nan), np.eye(2))


def test_kron_vectorization_against_direct_product():
    # Row-major vec: vec(A K B^T) = (A kron B) vec(K).  Oracle is the direct
    # triple matrix product.
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 2))
        k = rng.normal(size=(3, 2))
        direct = vec(a @ k @ b.T)
        via_kron = kron(a, b) @ vec(k)
        np.testing.assert_allclose(via_kron, direct, atol=1e-13)


def test_kron_associativity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c = (rng.normal(size=rng.integers(1, 4, size=2)) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert (np.linalg.norm(left - right)
                <= 1e-13 * max(1.0, np.linalg.norm(left)))


def test_principal_angles():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    diag = np.array([[1.0], [1.0]]) / math.sqrt(2)

    angle, mismatch = principal_angle_distance(e1, e1)
    assert angle == 0.0 and not mismatch

    angle, _ = principal_angle_distance(e1, e2)
    assert abs(angle - math.pi / 2) < 1e-15

    # oracle: arccos of the inner product
    expected = math.acos(float((e1.T @ diag)[0, 0]))
    angle, _ = principal_angle_distance(e1, diag)
    assert abs(angle - expected) < 1e-14


def test_principal_angle_dimension_mismatch_sentinel():
    u = np.eye(3)[:, :1]
    v = np.eye(3)[:, :2]
    angle, mismatch = principal_angle_distance(u, v)
    assert mismatch and angle == math.pi / 2
    with pytest.raises(NumericsError):
        principal_angle_distance(np.eye(2), np.eye(3))


def test_principal_angle_small_angle_accuracy():
    # Perturb a subspace by ~1e-12 and expect an angle of that size, not the
    # sqrt(eps) noise floor of arccos.
    u = np.eye(4)[:, :2]
    v = u.copy()
    v[2, 0] = 1e-12
    v = numerics.orthonormal_columns(v)
    angle, _ = principal_angle_distance(u, v)
    assert angle < 1e-11


def test_projection_residual():
    basis = np.eye(3)[:, :2]
    inside = np.array([[1.0], [2.0], [0.0]])
    outside = np.array([[0.0], [0.0], [3.0]])
    assert projection_residual(inside, basis) < 1e-15
    assert abs(projection_residual(outside, basis) - 1.0) < 1e-15
