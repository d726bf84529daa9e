import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnewton.errors import InputError
from mnewton.linalg import (
    as_matrix,
    binomials,
    companion_matrix,
    determinant,
    dual_index_set,
    enumerate_subsets,
    minor_sums,
    minor_sums_exhaustive,
    poly_roots,
    principal_minor,
    principal_minors_all,
    subset_masks,
    sym_eigenvalues,
    validate_index_set,
)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(InputError):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(InputError):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(InputError):
        as_matrix(np.zeros((0, 0)))


def test_determinant_identity_order_5():
    assert determinant(np.eye(5)) == 1.0


def test_determinant_two_by_two_cases():
    assert determinant([[2.0, -1.0], [-1.0, 2.0]]) == pytest.approx(3.0, abs=1e-14)
    # rank-one input snaps to an exact zero through the pivot threshold
    assert determinant([[1.0, -1.0], [-1.0, 1.0]]) == 0.0


def test_determinant_one_by_one_exact():
    assert determinant([[0.12345678912345]]) == 0.12345678912345


def test_determinant_matches_numpy_on_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = rng.uniform(-1, 1, (n, n))
        ref = float(np.linalg.det(a))
        assert determinant(a) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_principal_minor_empty_set_is_one():
    assert principal_minor(np.random.default_rng(0).normal(size=(4, 4)), ()) == 1.0


def test_principal_minor_examples():
    assert principal_minor(np.diag([1.0, 2.0, 3.0]), (2, 3)) == pytest.approx(6.0)
    assert principal_minor([[2.0, -1.0], [-1.0, 2.0]], (1, 2)) == pytest.approx(3.0)
    with pytest.raises(InputError):
        principal_minor(np.eye(3), (0, 2))
    with pytest.raises(InputError):
        principal_minor(np.eye(3), (2, 2))


@given(st.integers(1, 7), st.data())
def test_principal_minor_of_diagonal_is_product(n, data):
    entries = data.draw(st.lists(
        st.floats(-2, 2, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    size = data.draw(st.integers(0, n))
    alpha = tuple(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=size, max_size=size))))
    a = np.diag(entries)
    expected = math.prod(entries[i - 1] for i in alpha) if alpha else 1.0
    got = principal_minor(a, alpha)
    assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_minor_sums_identity():
    for n in (1, 3, 6):
        assert np.allclose(minor_sums(np.eye(n)), binomials(n))


def test_minor_sums_examples():
    assert np.allclose(minor_sums(np.diag([1.0, 2.0, 3.0])), [1, 6, 11, 6])
    assert np.allclose(minor_sums([[2.0, -1.0], [-1.0, 2.0]]), [1, 4, 3])


def test_minor_sums_agrees_with_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = rng.uniform(-1, 1, (n, n))
        fast = minor_sums(a)
        slow = minor_sums_exhaustive(a)
        assert np.all(np.abs(fast - slow) <= 1e-8 * np.maximum(1.0, np.abs(slow)))


def test_minor_sums_exhaustive_routes_through_principal_minor():
    # spot-check the batched enumeration against the scalar minor op
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (5, 5))
    for m in range(6):
        batch = principal_minors_all(a, m)
        singles = [principal_minor(a, s) for s in enumerate_subsets(5, m)]
        assert np.allclose(batch, singles, rtol=1e-10, atol=1e-12)


def test_minor_sums_exhaustive_cap():
    with pytest.raises(InputError):
        minor_sums_exhaustive(np.eye(17))


def test_enumerate_subsets_examples():
    assert enumerate_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert enumerate_subsets(3, 0) == [()]
    assert enumerate_subsets(4, 1) == [(1,), (2,), (3,), (4,)]
    assert enumerate_subsets(4, 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    with pytest.raises(InputError):
        enumerate_subsets(3, 4)


@given(st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=60)
def test_enumerate_subsets_colex_properties(n, m):
    if m > n:
        return
    subs = enumerate_subsets(n, m)
    assert len(subs) == math.comb(n, m)
    assert len(set(subs)) == len(subs)
    for s in subs:
        assert validate_index_set(s, n) == s
        assert len(s) == m
    # strictly increasing in colex order: compare reversed tuples
    keys = [s[::-1] for s in subs]
    assert keys == sorted(keys)


@given(st.integers(1, 10), st.data())
def test_dual_index_set_involution(n, data):
    size = data.draw(st.integers(0, n))
    alpha = tuple(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=size, max_size=size))))
    dual = dual_index_set(alpha, n)
    assert len(alpha) + len(dual) == n
    assert dual_index_set(dual, n) == alpha


def test_complement_reverses_colex_order():
    for n in range(13):
        for m in range(n + 1):
            duals = [dual_index_set(alpha, n) for alpha in enumerate_subsets(n, m)]
            assert duals == enumerate_subsets(n, n - m)[::-1], (n, m)


def test_subset_masks_match_subsets():
    masks = subset_masks(5, 2)
    subs = enumerate_subsets(5, 2)
    assert masks.size == len(subs)
    for mask, s in zip(masks, subs):
        assert int(mask) == sum(1 << (i - 1) for i in s)


def test_subset_masks_match_enumeration_up_to_fourteen():
    for n in range(15):
        for m in range(n + 1):
            want = np.array([sum(1 << (i - 1) for i in s) for s in enumerate_subsets(n, m)],
                            dtype=np.uint64)
            got = subset_masks(n, m)
            assert got.dtype == np.uint64 and np.array_equal(got, want), (n, m)


def test_subset_masks_validation():
    assert subset_masks(64, 1)[-1] == np.uint64(1 << 63)
    for n, m in ((65, 1), (3, 4), (3, -1)):
        with pytest.raises(InputError):
            subset_masks(n, m)


def test_sym_eigenvalues_examples():
    assert np.allclose(sym_eigenvalues(np.eye(3)), [1, 1, 1])
    assert np.allclose(sym_eigenvalues([[1.0, -1.0], [-1.0, 1.0]]), [0, 2], atol=1e-12)
    assert np.allclose(sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_sym_eigenvalues_rejects_asymmetric():
    with pytest.raises(InputError):
        sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_gramian_eigenvalues_nonnegative():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        v = rng.normal(size=(n, n))
        g = v @ v.T
        scale = max(1.0, float(np.max(np.abs(g))))
        assert sym_eigenvalues(g)[0] >= -1e-10 * scale


def test_poly_roots_examples():
    r = poly_roots([1.0, 0.0, -1.0])
    assert np.allclose(sorted(r.real), [-1, 1]) and np.allclose(r.imag, 0)
    r = poly_roots([1.0, -6.0, 11.0, -6.0])
    assert np.allclose(sorted(r.real), [1, 2, 3], atol=1e-9)


def test_poly_roots_reference_polynomial():
    # x^6 - 6x^5 + 14x^4 - 20x^3: triple zero root plus one real and a pair
    roots = poly_roots([1.0, -6.0, 14.0, -20.0, 0.0, 0.0, 0.0])
    real = max(roots, key=lambda z: z.real)
    assert abs(real - 3.6702) <= 5e-4
    pair = sorted((z for z in roots if abs(z.imag) > 0.1), key=lambda z: z.imag)
    assert abs(pair[1] - (1.1649 + 2.0229j)) <= 5e-4
    assert abs(pair[0] - (1.1649 - 2.0229j)) <= 5e-4
    assert sum(1 for z in roots if abs(z) < 1e-7) == 3


def test_poly_roots_residuals_small():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        c = rng.uniform(-1, 1, d + 1)
        c[0] = c[0] if abs(c[0]) > 0.1 else 1.0
        roots = poly_roots(c)
        scale = float(np.max(np.abs(c)))
        for z in roots:
            val = abs(np.polyval(c, z))
            assert val <= 1e-8 * scale * max(1.0, abs(z)) ** d


def test_poly_roots_vieta_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        c = rng.uniform(-1, 1, d + 1)
        c[0] = 1.0
        roots = poly_roots(c)
        rebuilt = np.array([1.0])
        for z in roots:
            rebuilt = np.convolve(rebuilt, [1.0, -z])
        assert np.all(np.abs(rebuilt.real - c) <= 1e-7 * np.maximum(1.0, np.abs(c)))


def test_poly_roots_rejects_degenerate():
    with pytest.raises(InputError):
        poly_roots([0.0, 0.0])
    with pytest.raises(InputError):
        poly_roots([3.0])
    with pytest.raises(InputError):
        companion_matrix([])
