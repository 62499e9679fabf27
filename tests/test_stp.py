import numpy as np
import pytest

from zdkit import DimensionError, DomainError, build_pee
from zdkit.stp import khatri_rao
from conftest import random_stochastic
from oracles import delta, is_column_stochastic, is_logical, stp, structure_matrix


def test_stp_matches_ordinary_product_when_dimensions_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n, q = rng.integers(1, 6, size=3)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(n, q))
        np.testing.assert_array_equal(stp(a, b), a @ b)


def test_stp_of_identities_is_identity():
    np.testing.assert_allclose(stp(np.eye(2), np.eye(3)), np.eye(6))


def test_stp_basis_vectors_kronecker_index():
    # delta_2^1 x delta_3^2 = delta_6^2
    np.testing.assert_array_equal(stp(delta(2, 1), delta(3, 2)), delta(6, 2))
    np.testing.assert_array_equal(stp(delta(2, 2), delta(3, 3)), delta(6, 6))


def test_stp_associativity_on_mixed_shapes():
    rng = np.random.default_rng(1)
    shapes = [(2, 3), (4, 2), (3, 5), (2, 2), (5, 4)]
    for _ in range(30):
        sa, sb, sc = (shapes[i] for i in rng.integers(0, len(shapes), 3))
        a, b, c = (rng.normal(size=s) for s in (sa, sb, sc))
        left = stp(stp(a, b), c)
        right = stp(a, stp(b, c))
        assert left.shape == right.shape
        assert np.max(np.abs(left - right)) < 1e-12


def test_khatri_rao_column_structure():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
    out = khatri_rao(a, b)
    assert out.shape == (6, 2)
    for i in range(2):
        np.testing.assert_array_equal(out[:, i], np.kron(a[:, i], b[:, i]))


def test_khatri_rao_prisoners_dilemma_first_column():
    p1, q1 = 0.3, 0.8
    l1 = np.array([[p1, 0, 0, 0], [1 - p1, 1, 1, 1]])
    l2 = np.array([[q1, 0, 0, 0], [1 - q1, 1, 1, 1]])
    out = khatri_rao(l1, l2)
    np.testing.assert_allclose(
        out[:, 0], [p1 * q1, p1 * (1 - q1), (1 - p1) * q1, (1 - p1) * (1 - q1)])


def test_khatri_rao_identity_with_ones_row():
    ones = np.ones((1, 2))
    out = khatri_rao(np.eye(2), ones)
    for i in range(2):
        np.testing.assert_array_equal(out[:, i], delta(2, i + 1).ravel())


def test_khatri_rao_preserves_column_stochasticity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mats = []
        for rows in (3, 4, 2):
            w = rng.uniform(0.05, 1.0, size=(rows, 3))
            mats.append(w / w.sum(axis=0))
        out = khatri_rao(khatri_rao(mats[0], mats[1]), mats[2])
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) < 1e-12


def test_khatri_rao_column_mismatch():
    # khatri_rao is unchecked; build_pee, its one caller, checks the columns
    with pytest.raises(DimensionError):
        build_pee([np.full((2, 3), 0.5), np.full((2, 4), 0.5)])


def test_structure_matrix_identity_and_constant():
    np.testing.assert_array_equal(structure_matrix([1, 2, 3], 3), np.eye(3))
    const = structure_matrix([1, 1, 1], 2)
    np.testing.assert_array_equal(const, [[1, 1, 1], [0, 0, 0]])


def test_structure_matrix_negation_swap():
    swap = structure_matrix([2, 1], 2)
    np.testing.assert_array_equal(swap, [[0, 1], [1, 0]])


def test_structure_matrix_vector_form_identity():
    # f(x) = M_f x for every point of the domain, in vector form
    images = [3, 1, 2, 2]
    mf = structure_matrix(images, 3)
    for j, fj in enumerate(images, start=1):
        np.testing.assert_array_equal(mf @ delta(4, j), delta(3, fj))
    assert is_logical(mf)


def test_structure_matrix_out_of_range():
    with pytest.raises(DomainError):
        structure_matrix([1, 4], 3)


def test_is_column_stochastic():
    assert is_column_stochastic(np.eye(5))
    bad = np.eye(3).copy()
    bad[0, 0] = 0.9
    assert not is_column_stochastic(bad, tol=1e-9)


def test_memory_one_product_matrix_is_stochastic():
    rng = np.random.default_rng(3)
    p, q = rng.random(4), rng.random(4)
    l1 = np.vstack([p, 1 - p])
    l2 = np.vstack([q, 1 - q])
    assert is_column_stochastic(khatri_rao(l1, l2))
