import math
from fractions import Fraction

import numpy as np
import pytest

from mnewton import mclass
from mnewton.errors import InputError
from mnewton.linalg import principal_minors_by_mask
from mnewton.mclass import (
    GENERATOR_KINDS,
    M_NONSINGULAR,
    M_SINGULAR,
    NOT_M,
    P_TEST_MAX_N,
    GeneratorSpec,
    classify,
    dual_minor_identity_check,
    generate,
    well_conditioned_transform,
)

from helpers import determinant, exact_determinant


def test_classify_nonsingular_m():
    rep = classify(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert rep.is_z and rep.is_p
    assert rep.m_class == M_NONSINGULAR
    assert not rep.witnesses and not rep.z_violations


def test_classify_singular_m():
    rep = classify(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert rep.is_z
    assert rep.m_class == M_SINGULAR
    assert rep.is_p is False
    assert not rep.is_inverse_m


def test_classify_inverse_m():
    rep = classify(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
    assert rep.is_inverse_m
    assert rep.m_class == NOT_M  # positive off-diagonals, not a Z-matrix
    assert rep.z_violations


def test_classify_not_m_with_witness():
    rep = classify(np.array([[1.0, -3.0], [-3.0, 1.0]]))
    assert rep.is_z
    assert rep.m_class == NOT_M
    assert any(value <= 0 for _, value in rep.witnesses)
    # det = 4e-7 * (1 - delta) > 0 behind a tiny first pivot delta: the full
    # set is no witness, although the first three are
    for k in range(1, 13):
        rep = classify(np.array([[10.0 ** -k, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0 - 4e-7]]))
        assert rep.witnesses and all(alpha != (1, 2, 3) for alpha, _ in rep.witnesses), k


def test_classify_lists_each_witness_once():
    # the exhaustive P test covers the leading minors, so they are not listed again
    for a in ([[1.0, -1.0], [-1.0, 1.0]], [[1.0, -3.0], [-3.0, 1.0]], -np.eye(4)):
        alphas = [alpha for alpha, _ in classify(np.array(a)).witnesses]
        assert alphas and len(alphas) == len(set(alphas)), a
    # beyond the exhaustive test the leading minors are the witnesses
    n = P_TEST_MAX_N + 1
    rep = classify(-np.eye(n))
    assert rep.is_p is None
    assert rep.witnesses == [(tuple(range(1, k + 1)), -1.0) for k in range(1, n + 1, 2)]


def test_entry_rules_are_scale_free():
    # entries near zero are judged against tol * max|A|, not an absolute tol
    for e in (-40, 0, 40):
        s = 2.0 ** e
        assert classify(s * np.array([[1.0, -1e-10], [0.0, 1.0]])).is_inverse_m, e
        assert classify(s * np.array([[2.0, 1e-10], [-1.0, 2.0]])).is_z, e


@pytest.mark.parametrize("n", [6, 12, 16])
def test_p_test_is_scale_free(n):
    # the size-m minors of 2^e A are those of A times 2^(e m): an absolute
    # minor <= tol read inverse-M as not P at small scales and singular-M as P
    # at large ones
    for kind, want in (("inverse-M", True), ("singular-M", False)):
        for seed in range(2):
            a = generate(GeneratorSpec(kind, n, seed))
            base = classify(a)
            assert base.is_p is want, (kind, seed)
            for e in (-40, 40):
                rep = classify(2.0 ** e * a)
                assert rep.is_p is want, (kind, seed, e)
                assert rep.witnesses == [(alpha, math.ldexp(v, e * len(alpha)))
                                         for alpha, v in base.witnesses], (kind, seed, e)


def test_p_test_witnesses_are_the_minors_of_a():
    # the witnesses are minors of 2^-e A scaled back by 2^(e |alpha|), so they
    # are A's own minors only if the tree is exact under that scaling
    for n in range(4, 13):
        for seed in range(8):
            a = generate(GeneratorSpec("similarity-conjugated-M", n, seed))
            minors = principal_minors_by_mask(a)
            for alpha, v in classify(a).witnesses:
                assert v == minors[sum(1 << (i - 1) for i in alpha)], (n, seed, alpha)


@pytest.mark.parametrize("n", [13, 20])
def test_p_test_reaches_twenty(n):
    assert P_TEST_MAX_N == 20
    rep = classify(generate(GeneratorSpec("inverse-M", n, 0)))
    assert rep.is_p is True and rep.m_class == NOT_M and not rep.witnesses


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # the probe overflows on wide copies
def test_nonsingular_verdict_from_the_tree_is_the_chains(monkeypatch):
    # Up to P_TEST_MAX_N classify reads det A[:k, :k] off the P-test tree.  With
    # every matrix taken as a Z-matrix, its M-nonsingular verdict must be the
    # chain's, tiny (rejected) first pivots and scaled copies included.
    from test_linalg import _tiny_first_pivot
    cases = [_tiny_first_pivot(10.0 ** -k) for k in range(1, 13)]
    for kind in GENERATOR_KINDS:
        for n in range(1, P_TEST_MAX_N + 1):
            a = generate(GeneratorSpec(kind, n, n))
            cases += [a, 2.0 ** -30 * a, 1e-12 * a]
            # wide range: scaled by 2^-e from max|A|, the leading minors underflow
            d = np.logspace(20, -20, n)
            cases.append(d[:, None] * a * d)
    cases.append(np.diag([1e100, 1.0, 1.0, 1.0, 1.0, 1.0]))
    monkeypatch.setattr(mclass, "_z_violations", lambda a, tol: [])
    for a in cases:
        assert (classify(a).m_class == M_NONSINGULAR) == \
            (not mclass._bad_leading_minors(a, 1e-9)), a.shape


def test_rejected_leading_pivot_takes_the_tree_fallback_minor():
    # D A D with A = [[2, -1], [-1, 2]] and D = diag(1, 1e40) is a nonsingular
    # M-matrix with det 3e80.  Its first pivot is rejected, and the tree's
    # fallback gives 3e80 where a row-relative pivot rule would give 0.0.
    rep = classify([[2.0, -1e40], [-1e40, 2e80]])
    assert rep.m_class == M_NONSINGULAR
    assert rep.witnesses[-1] == ((1, 2), pytest.approx(3e80, rel=1e-14))


def test_wide_range_m_beyond_the_p_test_cap_is_nonsingular():
    # D A D of a generated M-matrix at n = 21 with d = 10^U(-8, 8): the chain
    # rejects its first pivot, and the tree's fallback gives every later
    # leading minor above tol
    d = 10.0 ** np.random.default_rng(21).uniform(-8, 8, 21)
    a = d[:, None] * generate(GeneratorSpec("M", 21, 0)) * d
    exact = [[Fraction(float(x)) for x in row] for row in a]
    assert min(exact_determinant([row[:k] for row in exact[:k]]) for k in range(1, 22)) > 1.4e10
    assert classify(a).m_class == M_NONSINGULAR


def test_classify_runs_no_leading_minor_chain_up_to_the_p_test_cap(monkeypatch):
    calls = []
    chain = mclass._leading_minors
    monkeypatch.setattr(mclass, "_leading_minors", lambda a: calls.append(a.shape) or chain(a))
    for n in range(1, P_TEST_MAX_N + 1):
        assert classify(generate(GeneratorSpec("M", n, n))).m_class == M_NONSINGULAR
    assert not calls
    classify(generate(GeneratorSpec("M", P_TEST_MAX_N + 1, 0)))
    assert calls == [(P_TEST_MAX_N + 1, P_TEST_MAX_N + 1)]


def test_generate_is_deterministic():
    spec = GeneratorSpec("M", 6, 2024)
    assert np.array_equal(generate(spec), generate(spec))
    other = generate(GeneratorSpec("M", 6, 2025))
    assert not np.array_equal(generate(spec), other)


def test_generate_m_classifies_m():
    for seed in range(100):
        n = 2 + seed % 7
        rep = classify(generate(GeneratorSpec("M", n, seed)))
        assert rep.m_class == M_NONSINGULAR


def test_generate_inverse_m_classifies_inverse_m():
    for seed in range(100):
        n = 2 + seed % 7
        rep = classify(generate(GeneratorSpec("inverse-M", n, seed)))
        assert rep.is_inverse_m


def test_inverse_m_detected_beyond_unit_determinant():
    # det(inverse-M) = 1/det(M) drops below any absolute tolerance as n grows;
    # at n = 200 the pivot product underflows to 0.0, which must not read as singular
    for n, seed in ((12, 0), (16, 0), (24, 0), (32, 0), (200, 1)):
        a = generate(GeneratorSpec("inverse-M", n, seed))
        assert abs(determinant(a)) < 1e-9
        assert classify(a).is_inverse_m, n


def test_inverse_m_verdict_scale_invariant():
    # at n >= 32 the pivot product of 2^-40 A or 1e-12 A underflows for
    # inverse-M A (M kinds that large are left out: 2^40 A overflows their
    # leading minors)
    for seed in range(6):
        cases = [("inverse-M", 3 + seed), ("M", 3 + seed)]
        for kind, n in cases + [("inverse-M", n) for n in (32, 48, 64)]:
            a = generate(GeneratorSpec(kind, n, seed))
            want = classify(a).is_inverse_m
            assert want == (kind == "inverse-M")
            for s in (2.0 ** -40, 2.0 ** 40, 1e-12):
                assert classify(s * a).is_inverse_m == want, (kind, n, s)


def test_generate_singular_m_is_near_singular_z():
    for seed in range(25):
        n = 2 + seed % 7
        a = generate(GeneratorSpec("singular-M", n, seed))
        rep = classify(a)
        assert rep.is_z
        assert rep.m_class in (M_NONSINGULAR, M_SINGULAR)
        scale = max(1.0, float(np.max(np.abs(a))))
        assert abs(determinant(a)) <= 1e-5 * scale ** n


def test_singular_m_closure_under_shifts():
    for seed in range(25):
        n = 2 + seed % 6
        a = generate(GeneratorSpec("singular-M", n, seed))
        scale = float(np.max(np.abs(a)))
        for eps in (1e-8, 1e-6, 1e-4, 1e-2):
            rep = classify(a + eps * scale * np.eye(n))
            assert rep.m_class == M_NONSINGULAR


def test_generate_singular_m_is_singular_to_round_off():
    # rho(B)*I - B is singular to round-off only when rho(B) is exact to round-off
    for n in (*range(1, 13), 16, 24, 32, 48, 64):
        for seed in range(100):
            mod = np.abs(np.linalg.eigvals(generate(GeneratorSpec("singular-M", n, seed))))
            assert mod.min() <= 1e-12 * mod.max(), (n, seed)


@pytest.mark.parametrize("n, seed", [(6, 1466299489), (11, 1702508154)])
def test_generated_singular_m_lies_in_the_closure(n, seed):
    # matrix-sweep items where a Perron root 1e-8 short fell outside the probe shift
    rep = classify(generate(GeneratorSpec("singular-M", n, seed)))
    assert rep.m_class in (M_NONSINGULAR, M_SINGULAR)


# the closure rule over three probe shifts, an oracle for the one-shift probe
THREE_PROBE_SHIFTS = (1e-8, 1e-6, 1e-4)


def _passes_leading_minors(a, eps, tol=1e-9):
    """Every leading minor of A + eps*max|A|*I is above ``tol``."""
    n = a.shape[0]
    b = a + eps * (float(np.max(np.abs(a))) or 1.0) * np.eye(n)
    return all(determinant(b[:k, :k]) > tol for k in range(1, n + 1))


def _closure_boundary_family():
    """Generated M and singular-M matrices, and s*I - B for s around rho(B)."""
    for n in (*range(2, 13), 16, 24, 32, 48, 64):
        yield generate(GeneratorSpec("M", n, n))
        yield generate(GeneratorSpec("singular-M", n, n))
        b = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        rho = float(np.max(np.abs(np.linalg.eigvals(b))))
        for ratio in (0.9, 0.99, 1 - 1e-6, 1.0, 1 + 1e-6, 1.01):
            yield ratio * rho * np.eye(n) - b


def test_singular_probe_matches_three_shift_rule():
    seen = set()
    for a in _closure_boundary_family():
        rep = classify(a)
        assert rep.is_z
        # shift 0 is the nonsingular test itself
        passes = [_passes_leading_minors(a, eps) for eps in (0.0, *THREE_PROBE_SHIFTS)]
        assert passes == sorted(passes), passes          # fail..., then pass...
        if passes[0]:
            want = M_NONSINGULAR
        elif all(passes[1:]):
            want = M_SINGULAR
        else:
            want = NOT_M
        assert rep.m_class == want, (a.shape[0], passes)
        seen.add(tuple(passes[1:]))
    # the family reaches the shifts' boundary: some copies pass only at the larger shifts
    assert (False, False, True) in seen and (True, True, True) in seen


def test_principal_submatrices_of_m_are_m():
    for seed in range(20):
        n = 3 + seed % 6
        a = generate(GeneratorSpec("M", n, seed))
        for drop in range(n):
            keep = [i for i in range(n) if i != drop]
            rep = classify(a[np.ix_(keep, keep)])
            assert rep.m_class == M_NONSINGULAR


def test_classify_invariant_under_symmetric_permutation():
    rng = np.random.default_rng(4)
    for seed in range(20):
        n = 2 + seed % 6
        a = generate(GeneratorSpec("M", n, seed))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        assert classify(p @ a @ p.T).m_class == classify(a).m_class


def test_similarity_transform_condition_bound():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        t = well_conditioned_transform(n, rng)
        assert np.linalg.cond(t) <= 100.0 + 1e-6


def test_generator_spec_validation():
    with pytest.raises(InputError):
        GeneratorSpec("H", 4, 0)
    with pytest.raises(InputError):
        GeneratorSpec("M", 0, 0)
    with pytest.raises(InputError):
        GeneratorSpec("M", 4, 0, margin=0.0)


@pytest.mark.parametrize("seed", [-1, -5, -2**63])
def test_generator_spec_rejects_negative_seed(seed):
    with pytest.raises(InputError, match="seed must be >= 0"):
        GeneratorSpec("M", 3, seed)


@pytest.mark.parametrize("margin", [math.inf, -math.inf, math.nan])
def test_generator_spec_rejects_non_finite_margin(margin):
    with pytest.raises(InputError, match="margin must be positive and finite"):
        GeneratorSpec("M", 3, 1, margin=margin)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n", [2**40, 10**20])
def test_generate_order_numpy_refuses_is_input_error(kind, n):
    # numpy refuses both n x n shapes before it allocates anything
    with pytest.raises(InputError, match=f"order n = {n} is too large"):
        generate(GeneratorSpec(kind, n, 1))


def test_dual_minor_identity_examples():
    assert dual_minor_identity_check(np.eye(4))
    assert dual_minor_identity_check(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert dual_minor_identity_check(np.diag([1.0, 2.0, 3.0]))
    # a tiny first pivot delta, det = 1e-3 * (1 - delta); at det = 4e-7 inv(A)'s
    # 2x2 minors would cancel in round-off on any route
    for k in range(1, 13):
        assert dual_minor_identity_check(
            np.array([[10.0 ** -k, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.999]])), k


def test_dual_minor_identity_spot_values():
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    inv = np.linalg.inv(a)
    assert inv[0, 0] == pytest.approx(2.0 / 3.0)          # inv(A)[{1}]
    assert a[1, 1] / determinant(a) == pytest.approx(2.0 / 3.0)   # A[{2}]/det


def test_dual_minor_identity_holds_generally():
    rng = np.random.default_rng(6)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1, 1, (n, n))
        if abs(determinant(a)) <= 1e-3:
            continue
        assert dual_minor_identity_check(a, tol=1e-8)
        done += 1


def test_dual_minor_identity_inverse_m_small_determinant():
    # |det| is below the check's tolerance here, yet the matrices are far from singular
    for seed in (0, 4, 6):
        a = generate(GeneratorSpec("inverse-M", 10, seed))
        assert abs(determinant(a)) <= 1e-8
        assert dual_minor_identity_check(a), seed


@pytest.mark.parametrize("n", [16, 20])
def test_dual_minor_identity_at_sixteen_and_twenty(n):
    for kind in ("M", "inverse-M", "similarity-conjugated-M"):
        for seed in (0, 1):
            assert dual_minor_identity_check(generate(GeneratorSpec(kind, n, seed))), \
                (kind, seed)


def test_dual_minor_identity_rejects_singular_and_oversized():
    with pytest.raises(InputError):
        dual_minor_identity_check(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(InputError):
        dual_minor_identity_check(np.eye(21))


def test_dual_minor_identity_singular_inverse_is_input_error():
    # row-pivoted elimination keeps every pivot (their product is -3.5e-11),
    # while LAPACK's inverse meets an exact zero pivot
    a = generate(GeneratorSpec("singular-M", 9, 383480188))
    with pytest.raises(InputError, match="matrix is singular"):
        dual_minor_identity_check(a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dual_minor_identity_rejects_overflow():
    # det overflows to inf, so minor ratios are inf/inf = nan: an error, not a pass
    tridiag = 2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)
    for a in (1e200 * np.eye(3), 1e160 * tridiag):
        with pytest.raises(InputError, match="non-finite"):
            dual_minor_identity_check(a)
