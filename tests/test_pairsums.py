import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnewton.errors import InputError
from mnewton.linalg import principal_minors_all, subset_masks
from mnewton.mclass import GeneratorSpec, generate
from mnewton.pairsums import (
    MinorPairSums,
    expansion_identity_check,
    feasible_pair_params,
    feasible_ratio_params,
    identity_pair_count,
    pointwise_check,
    ratio_check,
)

from helpers import determinant


def dense_profile(minors, m1, m2):
    """Oracle: every (alpha, beta) subset pair, reduced in bitmask blocks by overlap;
    ``minors[m]`` holds the size-m principal minors in colex order."""
    va, vb = minors[m1], minors[m2]
    ma, mb = subset_masks(len(minors) - 1, m1), subset_masks(len(minors) - 1, m2)
    out = np.zeros(min(m1, m2) + 1)
    step = max(1, (1 << 16) // vb.size)
    for lo in range(0, va.size, step):
        inter = np.bitwise_count(ma[lo:lo + step, None] & mb[None, :]).astype(np.intp)
        w = va[lo:lo + step, None] * vb[None, :]
        out += np.bincount(inter.ravel(), weights=w.ravel(), minlength=out.size)
    return out


def exact_profile(minors, m1, m2):
    """Oracle: the overlap profile of the float minors, summed in exact rationals."""
    va = [Fraction(float(x)) for x in minors[m1]]
    vb = [Fraction(float(y)) for y in minors[m2]]
    ma, mb = subset_masks(len(minors) - 1, m1), subset_masks(len(minors) - 1, m2)
    out = [Fraction(0)] * (min(m1, m2) + 1)
    for x, a in zip(va, ma):
        for y, b in zip(vb, mb):
            out[int(a & b).bit_count()] += x * y
    return out


def oracle_matrices(n, seed):
    """One M, one inverse-M and one signed uniform(-1, 1) matrix of order n."""
    signed = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    return {"M": generate(GeneratorSpec("M", n, seed)),
            "inverse-M": generate(GeneratorSpec("inverse-M", n, seed)),
            "signed": signed}


def brute_force_pair_count(n, m1, m2, k):
    """Independent enumeration oracle for identity_pair_count."""
    try:
        ma, mb = subset_masks(n, m1), subset_masks(n, m2)
    except InputError:
        return 0
    return sum(1 for x in ma for y in mb if bin(int(x) & int(y)).count("1") == k)


def test_pair_sum_identity_examples():
    assert MinorPairSums(np.eye(2)).value(1, 1, 0) == 2.0
    assert MinorPairSums(np.eye(2)).value(1, 1, 1) == 2.0
    assert MinorPairSums(np.diag([1.0, 2.0])).value(1, 1, 0) == 4.0


def test_pair_sum_infeasible_is_zero():
    assert MinorPairSums(np.eye(3)).value(2, 2, 0) == 0.0  # needs 4 distinct elements
    assert MinorPairSums(np.eye(3)).value(4, 1, 0) == 0.0
    assert MinorPairSums(np.eye(3)).value(1, 1, 2) == 0.0


def test_pair_sum_order_cap():
    with pytest.raises(InputError):
        MinorPairSums(np.eye(23))


def test_pair_sums_accept_order_twenty_one():
    a = generate(GeneratorSpec("M", 21, 0))
    sums = MinorPairSums(a)
    assert sums.n == 21
    assert ratio_check(sums, 10, 9).holds


def test_identity_pair_count_examples():
    assert identity_pair_count(4, 2, 2, 1) == 24
    assert identity_pair_count(2, 1, 1, 0) == 2
    for n, m in ((5, 2), (7, 3)):
        assert identity_pair_count(n, m, m, m) == math.comb(n, m)
    assert identity_pair_count(3, 2, 2, 0) == 0


def test_identity_pair_count_matches_brute_force():
    for n in range(1, 9):
        for m1 in range(n + 1):
            for m2 in range(n + 1):
                for k in range(min(m1, m2) + 1):
                    assert identity_pair_count(n, m1, m2, k) == \
                        brute_force_pair_count(n, m1, m2, k), (n, m1, m2, k)


def test_identity_pair_count_equals_pair_sum_on_identity():
    for n in range(2, 7):
        sums = MinorPairSums(np.eye(n))
        for m1 in range(n + 1):
            for m2 in range(n + 1):
                for k in range(min(m1, m2) + 1):
                    assert sums.value(m1, m2, k) == float(
                        identity_pair_count(n, m1, m2, k))


@given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_pair_sum_symmetric_in_sizes(n, m1, m2, k, seed):
    a = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    sums = MinorPairSums(a)
    assert sums.value(m1, m2, k) == pytest.approx(sums.value(m2, m1, k),
                                                  rel=1e-12, abs=1e-12)


def test_pair_sum_against_direct_enumeration():
    rng = np.random.default_rng(12)
    from helpers import principal_minor
    from mnewton.linalg import enumerate_subsets
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a = rng.uniform(-1, 1, (n, n))
        sums = MinorPairSums(a)
        for m1 in range(n + 1):
            for m2 in range(n + 1):
                for k in range(min(m1, m2) + 1):
                    direct = sum(
                        principal_minor(a, sa) * principal_minor(a, sb)
                        for sa in enumerate_subsets(n, m1)
                        for sb in enumerate_subsets(n, m2)
                        if len(set(sa) & set(sb)) == k)
                    assert sums.value(m1, m2, k) == pytest.approx(
                        direct, rel=1e-10, abs=1e-12)


def test_ratio_check_identity_margin_zero():
    for n in (2, 4, 6):
        for m, k in feasible_ratio_params(n):
            rep = ratio_check(MinorPairSums(np.eye(n)), m, k)
            assert rep.margin == pytest.approx(0.0, abs=1e-12)
            assert rep.holds


def test_ratio_check_diag_example():
    rep = ratio_check(MinorPairSums(np.diag([1.0, 2.0])), 1, 0)
    assert rep.lhs == pytest.approx(2.0)       # 4 / 2
    assert rep.rhs == pytest.approx(2.0)       # 2 / 1
    assert rep.margin == pytest.approx(0.0, abs=1e-14)
    assert rep.holds


def test_ratio_check_on_generated_m_matrices():
    for seed in range(10):
        a = generate(GeneratorSpec("M", 5, seed))
        sums = MinorPairSums(a)
        for m, k in feasible_ratio_params(5):
            assert ratio_check(sums, m, k).holds


def test_ratio_check_rejects_infeasible():
    with pytest.raises(InputError):
        ratio_check(MinorPairSums(np.eye(3)), 2, 0)   # 2m - k = 4 > 3: identity count zero
    with pytest.raises(InputError):
        ratio_check(MinorPairSums(np.eye(3)), 1, 1)   # needs k < m


def test_pointwise_check_examples():
    rep = pointwise_check(MinorPairSums(np.diag([1.0, 2.0])), 1, 0)
    assert rep.margin == pytest.approx(0.0, abs=1e-14)   # 1*4 - 2*2
    for n in (3, 5):
        for m in range(1, n):
            for j in range(m + 1):
                rep = pointwise_check(MinorPairSums(np.eye(n)), m, j)
                lhs = (m - j) * identity_pair_count(n, m, m, j)
                rhs = (m - j + 1) * identity_pair_count(n, m + 1, m - 1, j)
                assert rep.margin == pytest.approx(float(lhs - rhs), abs=1e-9)
                assert lhs == rhs  # exact binomial cancellation


def test_pointwise_check_on_generated_m_matrices():
    for seed in range(10):
        n = 4 + seed % 3
        a = generate(GeneratorSpec("M", n, seed))
        sums = MinorPairSums(a)
        for m in range(1, n):
            for j in range(m + 1):
                rep = pointwise_check(sums, m, j)
                assert rep.margin >= -1e-9 * rep.scale


def test_pointwise_check_validates_params():
    with pytest.raises(InputError):
        pointwise_check(MinorPairSums(np.eye(3)), 3, 0)
    with pytest.raises(InputError):
        pointwise_check(MinorPairSums(np.eye(3)), 1, 2)


def test_expansion_identity_on_identity_matrix():
    for n in (2, 4, 6):
        for m in range(1, n):
            assert expansion_identity_check(MinorPairSums(np.eye(n)), m)


def test_expansion_identity_diag_hand_values():
    a = np.diag([1.0, 2.0, 3.0])
    sums = MinorPairSums(a)
    assert sums.value(1, 1, 0) == pytest.approx(22.0)  # 2*(1*2 + 1*3 + 2*3)
    assert sums.value(1, 1, 1) == pytest.approx(14.0)  # 1 + 4 + 9
    assert expansion_identity_check(sums, 1)


def test_expansion_identity_on_unrestricted_matrices():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        a = rng.uniform(-1, 1, (n, n))
        for m in range(1, n):
            assert expansion_identity_check(MinorPairSums(a), m, tol=1e-9)


def test_expansion_identity_validates_m():
    with pytest.raises(InputError):
        expansion_identity_check(MinorPairSums(np.eye(3)), 3)


def test_duality_identity_for_nonsingular_m():
    # with 2m - k = n, the pair sum maps to the complement sizes of the inverse
    for seed in range(10):
        n = 4 + seed % 5
        a = generate(GeneratorSpec("M", n, seed))
        det = determinant(a)
        inv = np.linalg.inv(a)
        sums_a, sums_inv = MinorPairSums(a), MinorPairSums(inv)
        for m in range(1, n):
            k = 2 * m - n
            if not 0 <= k < m:
                continue
            lhs = sums_a.value(m, m, k) / det ** 2
            rhs = sums_inv.value(n - m, n - m, 0)
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-12)


def test_averaging_identity_over_submatrices():
    # with 2m - k < n, the normalized pair sum is the mean over the n
    # order-(n-1) principal submatrices of the same normalized quantity
    for seed in range(6):
        n = 5 + seed % 3
        a = generate(GeneratorSpec("M", n, seed))
        sums = MinorPairSums(a)
        for m, k in feasible_ratio_params(n):
            if 2 * m - k >= n:
                continue
            lhs = sums.value(m, m, k) / identity_pair_count(n, m, m, k)
            acc = 0.0
            for drop in range(n):
                keep = [i for i in range(n) if i != drop]
                sub = a[np.ix_(keep, keep)]
                acc += (MinorPairSums(sub).value(m, m, k)
                        / identity_pair_count(n - 1, m, m, k))
            assert lhs == pytest.approx(acc / n, rel=1e-9, abs=1e-12)


def test_feasible_pair_params_edges():
    assert feasible_pair_params(4, 2, 2, 1)
    assert not feasible_pair_params(3, 2, 2, 0)
    assert not feasible_pair_params(4, 5, 1, 0)
    assert not feasible_pair_params(4, 2, 2, 3)
    assert not feasible_pair_params(4, -1, 2, 0)


def test_profile_matches_dense_route():
    # The moment route rounds in the moments S_t, and the alternating
    # binomial inversion amplifies that by up to ~3^m.  Measured at these
    # inputs: 6.6e-15 * sum|x| sum|y| absolute, and 4.4e-13 relative per
    # entry for M and inverse-M (positive minors, so every P_k > 0).
    for n in range(1, 13):
        for kind, a in oracle_matrices(n, 40 + n).items():
            sums = MinorPairSums(a)
            minors = [principal_minors_all(a, m) for m in range(n + 1)]
            for m1 in range(n + 1):
                for m2 in range(n + 1):
                    got, ref = sums.profile(m1, m2), dense_profile(minors, m1, m2)
                    scale = np.abs(minors[m1]).sum() * np.abs(minors[m2]).sum()
                    assert np.all(np.abs(got - ref) <= 1e-13 * scale), (kind, n, m1, m2)
                    if kind != "signed":
                        assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref)), \
                            (kind, n, m1, m2)


def test_profile_matches_exact_enumeration():
    # Against exact rationals of the same float minors the moment route
    # stays within 16 eps * sum|x| sum|y| (measured: 4.5 eps).
    for n in range(1, 8):
        for kind, a in oracle_matrices(n, 70 + n).items():
            sums = MinorPairSums(a)
            minors = [principal_minors_all(a, m) for m in range(n + 1)]
            for m1 in range(n + 1):
                for m2 in range(n + 1):
                    bound = Fraction(16 * np.finfo(float).eps * np.abs(minors[m1]).sum()
                                     * np.abs(minors[m2]).sum())
                    for got, exact in zip(sums.profile(m1, m2), exact_profile(minors, m1, m2)):
                        assert abs(Fraction(float(got)) - exact) <= bound, \
                            (kind, n, m1, m2)


def test_profile_infeasible_overlaps_exactly_zero():
    for n in (5, 8, 11):
        sums = MinorPairSums(oracle_matrices(n, n)["signed"])
        for m1 in range(n + 1):
            for m2 in range(n + 1):
                prof = sums.profile(m1, m2)
                for k in range(min(m1, m2) + 1):
                    if not feasible_pair_params(n, m1, m2, k):
                        assert prof[k] == 0.0, (n, m1, m2, k)


def test_profile_of_sizes_outside_the_order_is_zero():
    sums = MinorPairSums(np.eye(3))
    assert sums.profile(4, 2).tolist() == [0.0] * 3
    assert sums.profile(2, 5).tolist() == [0.0] * 3
    assert sums.profile(7, 4).tolist() == [0.0] * 5
    assert sums.profile(-1, 2).tolist() == []
    assert sums.profile(2, -3).tolist() == []


def test_profile_overflow_is_an_input_error():
    sums = MinorPairSums(1e200 * np.eye(3))
    with np.errstate(over="ignore"), pytest.raises(InputError):
        sums.profile(2, 2)


def test_split_checks_hold_at_n16():
    for kind in ("M", "inverse-M"):
        a = generate(GeneratorSpec(kind, 16, 5))
        sums = MinorPairSums(a)
        for m, k in feasible_ratio_params(16):
            assert ratio_check(sums, m, k).holds, (kind, m, k)
            assert pointwise_check(sums, m, k).holds, (kind, m, k)


@pytest.mark.parametrize("s", [1.0, 1e-5, 1e-150])
def test_split_checks_fail_scaled_violator(s):
    # (1, 1)-split margin is -s^2 against a scale of 2 s^2: a 50 % violation
    a = s * np.array([[1.0, 1.0], [-1.0, 1.0]])
    sums = MinorPairSums(a)
    assert not ratio_check(sums, 1, 0).holds
    assert not pointwise_check(sums, 1, 0).holds


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: minor products underflow to 0, which holds")
def test_split_verdicts_survive_underflow():
    # both sides have degree 2m, so s*A has the verdict of A at every scale
    for s in (1.0, 1e-150, 1e-170):
        a = s * np.array([[1.0, 1.0], [-1.0, 1.0]])
        sums = MinorPairSums(a)
        assert not ratio_check(sums, 1, 0).holds, s
        assert not pointwise_check(sums, 1, 0).holds, s


def test_split_verdicts_invariant_under_scaling():
    # scale-free margins (margin / scale lies in [-2, 2]) move only by round-off
    mats = [generate(GeneratorSpec("M", 5 + seed % 4, seed)) for seed in range(6)]
    mats.append(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    for a in mats:
        n = a.shape[0]
        b = 2.0 ** -40 * a
        sums, scaled = MinorPairSums(a), MinorPairSums(b)
        for m, k in feasible_ratio_params(n):
            for check in (ratio_check, pointwise_check):
                r0, r1 = check(sums, m, k), check(scaled, m, k)
                assert r0.holds == r1.holds, (check.__name__, n, m, k)
                assert r1.margin / r1.scale == pytest.approx(r0.margin / r0.scale, abs=1e-12), \
                    (check.__name__, n, m, k)


def test_split_forms_are_one_inequality():
    # each side of the pointwise form is lambda = (m-k) * identity_pair_count(n, m, m, k)
    # times the same side of the ratio form, since (m-k+1) times the (m+1, m-1) count
    # equals lambda; so the two verdicts agree
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    mats = [generate(GeneratorSpec(kind, n, seed))
            for kind in ("M", "inverse-M", "similarity-conjugated-M")
            for n in (4, 7, 10) for seed in range(3)]
    mats += [rng.uniform(-1, 1, (n, n)) for n in rng.integers(2, 8, 200)]
    for a in mats:
        n = a.shape[0]
        sums = MinorPairSums(a)
        for m, k in feasible_ratio_params(n):
            ratio, point = ratio_check(sums, m, k), pointwise_check(sums, m, k)
            lam = (m - k) * identity_pair_count(n, m, m, k)
            assert (m - k + 1) * identity_pair_count(n, m + 1, m - 1, k) == lam
            for got, ref in ((point.lhs, lam * ratio.lhs), (point.rhs, lam * ratio.rhs)):
                assert abs(got - ref) <= 4 * eps * abs(ref), (n, m, k)
            assert point.holds == ratio.holds, (n, m, k)
