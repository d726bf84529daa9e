import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnewton import linalg
from mnewton.charcoeff import normalized_coeffs
from mnewton.errors import InputError
from mnewton.linalg import (
    _leading_minors,
    as_matrix,
    binomials,
    enumerate_subsets,
    principal_minors_all,
    principal_minors_by_mask,
    subset_masks,
)
from mnewton.mclass import GeneratorSpec, dual_minor_identity_check, generate
from mnewton.pairsums import MinorPairSums

from helpers import (
    companion_matrix,
    determinant,
    dual_index_set,
    exact_minors_by_mask,
    minor_sums_exhaustive,
    poly_roots,
    principal_minor,
    principal_minors_batched,
    validate_index_set,
)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(InputError):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(InputError):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(InputError):
        as_matrix(np.zeros((0, 0)))
    for entries in ([[1j]], [["a"]], [[1.0, 2.0 + 0j], [0.0, 1.0]]):
        with pytest.raises(InputError, match="matrix entries must be real numbers: "):
            as_matrix(entries)


def test_determinant_identity_order_5():
    assert determinant(np.eye(5)) == 1.0


def test_determinant_two_by_two_cases():
    assert determinant([[2.0, -1.0], [-1.0, 2.0]]) == pytest.approx(3.0, abs=1e-14)
    # rank-one input snaps to an exact zero through the pivot threshold
    assert determinant([[1.0, -1.0], [-1.0, 1.0]]) == 0.0


def test_determinant_one_by_one_exact():
    assert determinant([[0.12345678912345]]) == 0.12345678912345
    assert math.copysign(1.0, determinant([[-0.0]])) == -1.0


def test_determinant_zero_column_is_exact_zero():
    # a zero pivot column, with and without a zero pivot row
    for a in ([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]],
              [[0.0, 0.0], [0.0, 1.0]]):
        d = determinant(a)
        assert d == 0.0 and math.copysign(1.0, d) == 1.0, a


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
        assert np.allclose(normalized_coeffs(np.eye(n)) * binomials(n), binomials(n))


def test_minor_sums_examples():
    assert np.allclose(normalized_coeffs(np.diag([1.0, 2.0, 3.0])) * binomials(3), [1, 6, 11, 6])
    assert np.allclose(normalized_coeffs([[2.0, -1.0], [-1.0, 2.0]]) * binomials(2), [1, 4, 3])


def test_minor_sums_agrees_with_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = rng.uniform(-1, 1, (n, n))
        fast = normalized_coeffs(a) * binomials(n)
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


def _popcounts(n):
    return np.bitwise_count(np.arange(1 << n))


def _hadamard_bounds(a):
    """prod of the row norms of A[S] (>= |det A[S]|) at every mask S."""
    n = a.shape[0]
    out = np.ones(1 << n)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        out[mask] = np.prod(np.linalg.norm(a[np.ix_(idx, idx)], axis=1))
    return out


def _tiny_first_pivot(delta, eta=4e-7):
    """det = eta * (1 - delta); without pivoting the first pivot delta blows the
    complement up to 1 - 1/delta and the full-set minor is lost in round-off."""
    return np.array([[delta, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0 - eta]])


def test_minor_tree_matches_exact_minors():
    # Calibrated against exact rationals of the float entries (seeds 0-2,
    # n = 2, 5, 8, 10): |error| <= 2.8e-14 of the Hadamard bound
    # prod_i |A[S]_i| (Gaussian, n = 10), and <= 1.4e-15 relative for every
    # P-matrix minor.  The full set of singular-M is round-off around 0, so
    # only the Hadamard bound applies to it.
    # a zero first pivot: without the fallback the full set would be nan
    assert principal_minors_by_mask([[0.0, 1.0], [1.0, 0.0]]).tolist() == [1.0, 0.0, 0.0, -1.0]
    assert principal_minors_by_mask(np.zeros((4, 4))).tolist() == [1.0] + [0.0] * 15
    # the Schur complement of A[{1}] has a zero pivot at element 2 (mid-tree):
    # det A[{1,2}] = 1 * 0 stays exact, det A[{1,2,3}] = -3 comes from the fallback
    mid = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0], [2.0, 5.0, 1.0]])
    got = principal_minors_by_mask(mid)
    assert got[0b011] == 0.0
    assert got[0b111] == pytest.approx(-3.0, rel=1e-14)
    # tiny first pivots, which the parent's row-pivoted det handles: the
    # full-set minor read 0.0 for delta = 1e-10 while the growth was unbounded
    for k in range(1, 13):
        a = _tiny_first_pivot(10.0 ** -k)
        exact = float(exact_minors_by_mask(a)[0b111])
        assert principal_minors_by_mask(a)[0b111] == pytest.approx(exact, rel=1e-8), k
    rng = np.random.default_rng(8)
    cases = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((3, 3)), mid,
             _tiny_first_pivot(1e-10), 2.0 ** 40 * _tiny_first_pivot(1e-6),
             2.0 ** -40 * _tiny_first_pivot(1e-12)]
    for n in (1, 2, 5, 8, 10):
        cases.append(rng.standard_normal((n, n)))
        for kind in ("M", "inverse-M", "singular-M"):
            a = generate(GeneratorSpec(kind, n, n))
            got = principal_minors_by_mask(a)
            exact = np.array([float(x) for x in exact_minors_by_mask(a)])
            proper = slice(None, -1) if kind == "singular-M" else slice(None)
            assert np.all(np.abs(got - exact)[proper] <= 1e-14 * exact[proper]), (kind, n)
            cases.append(a)
    for a in cases:
        got = principal_minors_by_mask(a)
        exact = np.array([float(x) for x in exact_minors_by_mask(a)])
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - exact) <= 1e-12 * _hadamard_bounds(a)), a.shape
        sizes = _popcounts(a.shape[0])
        assert [principal_minors_all(a, m).tolist() for m in range(a.shape[0] + 1)] == \
            [got[sizes == m].tolist() for m in range(a.shape[0] + 1)], a.shape


def test_minors_are_exact_under_power_of_two_scaling():
    # The tree commutes with 2^k scaling, and so must the batched det that
    # recomputes the minors behind a rejected pivot: np.linalg.det on the raw
    # blocks moved 121 of the 4 x 128 minors of the first matrix in the last bit.
    rng = np.random.default_rng(3)
    cases = [generate(GeneratorSpec("similarity-conjugated-M", 7, 1386675064))]
    cases += [rng.standard_normal((n, n)) for n in range(1, 11)]
    for a in cases:
        base = principal_minors_by_mask(a)
        sizes = _popcounts(a.shape[0]).astype(int)
        for k in (-40, -6, 6, 40):
            got = principal_minors_by_mask(2.0 ** k * a)
            assert got.tolist() == np.ldexp(base, k * sizes).tolist(), (a.shape, k)


def test_minor_tree_matches_batched_det():
    # Largest deviation per size, relative to that size's largest minor,
    # measured over seeds 0-3 at n <= 16: 1.1e-14 (M, inverse-M),
    # 1.3e-13 (similarity-conjugated-M), 1.4e-13 (Gaussian).  The one
    # full-set minor of singular-M is round-off on both routes, so it is left out.
    for n in (1, 4, 9, 12, 16):
        sizes = _popcounts(n)
        mats = {kind: generate(GeneratorSpec(kind, n, n + 1))
                for kind in ("M", "inverse-M", "singular-M", "similarity-conjugated-M")}
        mats["gaussian"] = np.random.default_rng(n).standard_normal((n, n))
        for kind, a in mats.items():
            got = principal_minors_by_mask(a)
            for m in range(n + 1 if kind != "singular-M" else n):
                want = principal_minors_batched(a, m)
                assert np.max(np.abs(got[sizes == m] - want)) <= 1e-11 * np.max(np.abs(want)), \
                    (kind, n, m)


def _counting_block_minors(monkeypatch):
    """Route ``linalg._block_minors``, the one rejected-pivot fallback, through
    a wrapper; return the shapes of the index sets it is called with."""
    calls = []
    block_minors = linalg._block_minors

    def counted(mat, idx, at=()):
        calls.append(idx.shape)
        return block_minors(mat, idx, at)
    monkeypatch.setattr(linalg, "_block_minors", counted)
    return calls


def _tree_path(a):
    """The all-include path of the tree: det A[:k, :k] for k = 1..n."""
    return principal_minors_by_mask(a)[(1 << np.arange(1, a.shape[0] + 1)) - 1]


def test_leading_minor_chain_is_the_all_include_path(monkeypatch):
    # The chain is the tree's all-include path, so it matches the tree bit for
    # bit.  Against row-pivoted determinant per block the error is judged
    # against max(|det_k|, |det_{k-1}| * max|A|): the last minor of singular-M
    # (round-off) and of its probe shift (about 1e-8 * |det_{k-1}| * max|A|)
    # cancel terms of that size.  Measured: at most 6.3e-16.
    cases = []
    for n in (*range(4, 13), 16, 24, 32, 48, 64):
        for kind in ("M", "singular-M"):
            a = generate(GeneratorSpec(kind, n, n))
            cases += [a, a + 1e-8 * np.max(np.abs(a)) * np.eye(n)]
    wants = [np.array([determinant(a[:k, :k]) for k in range(1, a.shape[0] + 1)])
             for a in cases]
    calls = _counting_block_minors(monkeypatch)
    for a, want in zip(cases, wants):
        n = a.shape[0]
        got = _leading_minors(a)
        below = np.concatenate(([1.0], np.abs(want[:-1]))) * np.max(np.abs(a))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), below)), n
        if n <= 16:
            assert got.tobytes() == _tree_path(a).tobytes(), n
    assert not calls        # no pivot of these matrices is rejected


def test_leading_minor_chain_falls_back_after_a_rejected_pivot(monkeypatch):
    # det A[{1,2}] = 1 * 0 ends the chain exactly; det A[{1,2,3}] = -3 comes
    # from the tree's fallback, as in the tree
    mid = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0], [2.0, 5.0, 1.0]])
    path = _tree_path(mid)
    calls = _counting_block_minors(monkeypatch)
    got = _leading_minors(mid)
    assert got.tolist() == [1.0, 0.0, -3.0000000000000013]
    assert got.tobytes() == path.tobytes()
    assert calls == [(1, 3)]
    # tiny first pivots delta = 10^-k: delta <= 1e-2 * max|row 1| from k = 2 on,
    # and the minors after it come from the fallback, one call per minor
    for k in range(1, 13):
        a = _tiny_first_pivot(10.0 ** -k)
        path = _tree_path(a)
        calls.clear()
        got = _leading_minors(a)
        exact = [float(exact_minors_by_mask(a)[mask]) for mask in (0b1, 0b11, 0b111)]
        assert got[0] == a[0, 0]
        assert got.tolist() == pytest.approx(exact, rel=1e-8), k
        assert got.tobytes() == path.tobytes(), k
        assert calls == ([(1, 2), (1, 3)] if k >= 2 else []), k


def test_stacked_tree_is_the_per_matrix_trees():
    # Column k of a tree over an (n, n, K) stack is the tree of matrix k alone,
    # bit for bit.  mid rejects a pivot and the other members do not, so the
    # fallback must gather mid's blocks and write mid's column only.
    mid = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0], [2.0, 5.0, 1.0]])
    rng = np.random.default_rng(4)
    stacks = [[generate(GeneratorSpec("M", 3, 1)), mid],
              [mid, generate(GeneratorSpec("inverse-M", 3, 2)), _tiny_first_pivot(1e-6)]]
    for n in (1, 5, 9):
        stacks.append([generate(GeneratorSpec(kind, n, n)) for kind in
                       ("M", "inverse-M", "singular-M", "similarity-conjugated-M")]
                      + [rng.standard_normal((n, n))])
    for mats in stacks:
        n = mats[0].shape[0]
        for m in (None, *range(n + 1)):
            got = linalg._minor_tree(np.stack(mats, axis=-1), m)
            assert got.shape[1] == len(mats)
            for k, a in enumerate(mats):
                assert got[:, k].tobytes() == linalg._minor_tree(a, m).tobytes(), (n, m, k)
    assert linalg._minor_tree(np.stack(stacks[0], axis=-1))[0b111, 1] == \
        pytest.approx(-3.0, rel=1e-14)         # mid's fallback minor, in mid's column


def test_determinant_is_finite_for_finite_input():
    # exact determinant 0: unscaled, the pivot product overflowed to inf and the
    # zero last pivot made it nan, which the chain then kept as its last minor
    a = np.array([[2.0, 100.0, 100.0], [0.0, 1.0, 1.0], [1e307, 1.0, 1.0]])
    assert determinant(a) == 0.0
    # the product is kept in range without rescaling A, whose small entries would underflow
    assert determinant([[1e300, 0.0], [0.0, 1e-300]]) == 1e300 * 1e-300
    assert determinant([[1e30, 0.0], [0.0, 1e-300]]) == 1e30 * 1e-300
    with np.errstate(over="ignore", invalid="ignore"):      # the chain's complement overflows
        assert _leading_minors(a).tolist() == [2.0, 2.0, 0.0]


def test_small_size_minors_at_forty_stay_small():
    a = generate(GeneratorSpec("M", 40, 0))
    tracemalloc.start()
    try:
        got = principal_minors_all(a, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20      # measured 2.0 MB; all 2^40 minors would take 8 TiB
    assert got.size == math.comb(40, 2)
    assert np.allclose(got, principal_minors_batched(a, 2), rtol=1e-13, atol=0.0)
    with pytest.raises(InputError):
        principal_minors_all(np.eye(65), 1)        # bitmasks hold n <= 64
    for m in (-1, 5):
        with pytest.raises(InputError, match=r"minor size -?\d out of range 0\.\.3"):
            principal_minors_all(np.eye(3), m)


@pytest.mark.parametrize("call", [
    lambda: principal_minors_by_mask(np.eye(23)),
    lambda: principal_minors_all(np.eye(40), 20),
    lambda: subset_masks(40, 20),
    lambda: enumerate_subsets(40, 20),
    lambda: MinorPairSums(np.eye(23)),
    lambda: dual_minor_identity_check(np.eye(23)),
])
def test_minor_cap_refuses_before_allocating(call):
    # 2^23 minors take 64 MiB, and C(40, 20) = 1.4e11 of them 1.1 TB
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"exceed the cap of 2\^22 per call"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_minor_cap_admits_its_bound():
    assert linalg.MINOR_CAP == 2 ** 22
    assert subset_masks(64, 4).size == math.comb(64, 4)
    assert subset_masks(24, 12).size == math.comb(24, 12) <= linalg.MINOR_CAP
    with pytest.raises(InputError, match="cap"):
        subset_masks(64, 5)             # C(64, 5) = 7.6e6


def test_fallback_minor_rebuilds_an_underflowed_det_from_its_log():
    # The zero first pivot sends every leading minor to the fallback.  Scaled
    # to the binade of the largest entry (1e150), the 4 x 4 block's det is
    # about 1e-320, a subnormal with a few bits left; det A = -1e280.  Scaling
    # A by 2^-40 moves it by exactly 2^-160.
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1e150
    a[2, 2] = a[3, 3] = 1e-10
    got = _leading_minors(a)
    assert got[-1] == pytest.approx(-1e280, rel=1e-12)
    assert _leading_minors(2.0 ** -40 * a)[-1] == np.ldexp(got[-1], -160)
    # an exactly singular block keeps its exact zero
    assert _leading_minors(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 2.0]]))[-1] == 0.0


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
            subsets = sorted(itertools.combinations(range(1, n + 1), m), key=lambda s: s[::-1])
            want = np.array([sum(1 << (i - 1) for i in s) for s in subsets], dtype=np.uint64)
            got = subset_masks(n, m)
            assert got.dtype == np.uint64 and np.array_equal(got, want), (n, m)
            assert enumerate_subsets(n, m) == subsets, (n, m)


def test_subset_masks_validation():
    assert subset_masks(64, 1)[-1] == np.uint64(1 << 63)
    for n, m in ((65, 1), (3, 4), (3, -1)):
        with pytest.raises(InputError):
            subset_masks(n, m)


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
