import math

import numpy as np
import pytest

from mnewton.errors import InputError
from mnewton.linalg import determinant
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
    # det(inverse-M) = 1/det(M) drops below any absolute tolerance as n grows
    for n in (12, 16, 24, 32):
        a = generate(GeneratorSpec("inverse-M", n, 0))
        assert abs(determinant(a)) < 1e-9
        assert classify(a).is_inverse_m, n


def test_inverse_m_verdict_scale_invariant():
    for seed in range(6):
        n = 3 + seed
        for kind in ("inverse-M", "M"):
            a = generate(GeneratorSpec(kind, n, seed))
            want = classify(a).is_inverse_m
            assert want == (kind == "inverse-M")
            for s in (2.0 ** -40, 2.0 ** 40):
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dual_minor_identity_rejects_overflow():
    # det overflows to inf, so minor ratios are inf/inf = nan: an error, not a pass
    tridiag = 2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)
    for a in (1e200 * np.eye(3), 1e160 * tridiag):
        with pytest.raises(InputError, match="non-finite"):
            dual_minor_identity_check(a)
