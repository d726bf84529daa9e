import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnewton.charcoeff import (
    coeffs_from_spectrum,
    ensure_conjugate_closed,
    newton_check,
    normalized_coeffs,
)
from mnewton.errors import InputError
from mnewton.mclass import GENERATOR_KINDS, GeneratorSpec, generate, well_conditioned_transform
from mnewton.niep import moments

from helpers import coeffs_numpy_scalar, minor_sums_exhaustive, same_bits

SQRT2 = math.sqrt(2.0)


def test_normalized_coeffs_identity():
    for n in (1, 4, 7):
        assert np.allclose(normalized_coeffs(np.eye(n)), np.ones(n + 1))


def test_normalized_coeffs_examples():
    assert np.allclose(normalized_coeffs(np.diag([1.0, 2.0, 3.0])),
                       [1.0, 2.0, 11.0 / 3.0, 6.0])
    assert np.allclose(normalized_coeffs([[2.0, -1.0], [-1.0, 2.0]]), [1.0, 2.0, 3.0])


def test_coeffs_from_spectrum_examples():
    assert np.allclose(coeffs_from_spectrum([0.0, 2.0, 2.0]),
                       [1.0, 4.0 / 3.0, 4.0 / 3.0, 0.0])
    got = coeffs_from_spectrum([0.0, SQRT2 - 1j, SQRT2 + 1j])
    assert np.allclose(got, [1.0, 2.0 * SQRT2 / 3.0, 1.0, 0.0])
    assert np.allclose(coeffs_from_spectrum(np.ones(6)), np.ones(7))


def test_coeffs_from_spectrum_requires_closure():
    with pytest.raises(InputError):
        coeffs_from_spectrum([1.0 + 1j, 2.0])
    with pytest.raises(InputError):
        coeffs_from_spectrum([1j, 1j, -1j])  # multiplicities must pair up too


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_coeffs_from_spectrum_bit_identical_to_numpy_scalar_loop(kind):
    for n in (1, 2, 3, 4, 5, 7, 10, 12, 16, 24, 33, 48, 64):
        for seed in range(2):
            vals = np.linalg.eigvals(generate(GeneratorSpec(kind, n, seed)))
            got = coeffs_from_spectrum(vals)
            assert same_bits(got, coeffs_numpy_scalar(vals)), (kind, n, seed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_coeffs_from_spectrum_bit_identical_when_overflowing():
    for vals in ([1e300, -1e300, 1e300], [1e200, 1e200, 1e200], [1e300j, -1e300j],
                 [1e160 + 1e160j, 1e160 - 1e160j, 5.0], [-1e308, -1e308, 2.0, 3.0]):
        got = coeffs_from_spectrum(vals)
        assert not np.all(np.isfinite(got)), vals
        assert same_bits(got, coeffs_numpy_scalar(vals)), vals


def test_ensure_conjugate_closed_accepts_noisy_pairs():
    vals = ensure_conjugate_closed([1.0 + 1j, 1.0 - 1j + 1e-12, 0.5])
    assert vals.size == 3


def test_ensure_conjugate_closed_pairs_inexact_partners():
    # partners within CLOSURE_RTOL but not exact conjugates go through the
    # nearest-partner search, next to an exact pair
    vals = [2.0 + 1j, 0.5, 1.0 + 1e-12 - 3j, 2.0 - 1j, 1.0 + 3j, 1.0 + 3.001j, 1.0 - 3.001j]
    out = ensure_conjugate_closed(vals)
    assert out.dtype == complex and np.array_equal(out, vals)
    with pytest.raises(InputError, match=r"no partner for \(1\+3j\)"):
        ensure_conjugate_closed([1.0 + 3j, 1.0 - 3j + 1e-6j, 0.5])
    with pytest.raises(InputError, match="no partner"):
        ensure_conjugate_closed([2.0 + 1j, 2.0 - 1j, 2.0 + 1j])


def test_newton_check_examples():
    rep = newton_check(coeffs_from_spectrum([0.0, 2.0, 2.0]))
    assert rep.holds
    assert np.allclose(rep.margins, [4.0 / 9.0, 16.0 / 9.0])

    rep = newton_check(coeffs_from_spectrum([0.0, SQRT2 - 1j, SQRT2 + 1j]))
    assert not rep.holds
    assert rep.worst_j == 1
    assert rep.margins[0] == pytest.approx(-1.0 / 9.0, abs=1e-12)

    rep = newton_check(normalized_coeffs(np.eye(5)))
    assert rep.holds
    assert np.allclose(rep.margins, 0.0)


def test_newton_check_validates_normalization():
    with pytest.raises(InputError):
        newton_check([2.0, 1.0, 1.0])


def test_newton_check_trivial_sizes():
    rep = newton_check([1.0, 3.0])
    assert rep.holds and rep.worst_j is None and rep.margins.size == 0


@given(st.lists(st.floats(-3, 3, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=7))
@settings(max_examples=80)
def test_route_agreement_on_diagonal(entries):
    a = np.diag(entries)
    lhs = normalized_coeffs(a)
    rhs = coeffs_from_spectrum(entries)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs)))


def test_newton_holds_for_generated_m_matrices():
    for seed in range(100):
        n = 2 + seed % 7
        a = generate(GeneratorSpec("M", n, seed))
        assert newton_check(normalized_coeffs(a), tol=1e-9).holds
        inv = generate(GeneratorSpec("inverse-M", n, seed))
        assert newton_check(normalized_coeffs(inv), tol=1e-9).holds


def test_newton_holds_for_real_spectra_matrices():
    # symmetric random matrices have real spectra, the classical case
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        g = rng.normal(size=(n, n))
        a = 0.5 * (g + g.T)
        assert newton_check(normalized_coeffs(a), tol=1e-9).holds


def test_similarity_invariance_of_coefficients():
    rng = np.random.default_rng(77)
    for seed in range(30):
        n = 2 + seed % 6
        a = generate(GeneratorSpec("M", n, seed))
        t = well_conditioned_transform(n, rng)
        conj = t @ a @ np.linalg.inv(t)
        ca, cb = normalized_coeffs(a), normalized_coeffs(conj)
        assert np.all(np.abs(ca - cb) <= 1e-6 * np.maximum(1.0, np.abs(ca)))


def test_first_margin_sign_matches_moment_comparison():
    # sign of the first Newton margin agrees with n*s_2 - s_1^2
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        lam = rng.uniform(-2, 2, n)
        margin = newton_check(coeffs_from_spectrum(lam)).margins[0]
        s = moments(lam, 2)
        ref = n * s[1] - s[0] ** 2
        if abs(ref) > 1e-9:
            assert margin * ref >= 0.0 or abs(margin) <= 1e-12


def exact_minor_sums(a) -> list[Fraction]:
    """Exact E_0..E_n of a float matrix: Faddeev-LeVerrier in integers (the test oracle).

    Float entries are dyadic rationals, so B = 2^s A is an integer matrix
    for some s.  Every step of the trace recursion on B is then an integer,
    and E_j(A) = E_j(B) / 2^(s j).
    """
    fr = [[Fraction(float(x)) for x in row] for row in np.asarray(a, dtype=float)]
    n = len(fr)
    s = max(f.denominator for row in fr for f in row).bit_length() - 1
    b = np.array([[int(f * 2**s) for f in row] for row in fr], dtype=object)
    eye = np.eye(n, dtype=int).astype(object)
    e, acc = [1], eye
    for k in range(1, n + 1):
        prod = b.dot(acc)
        c, rem = divmod(-np.trace(prod), k)
        assert rem == 0
        e.append((-1) ** k * c)
        acc = prod + c * eye
    return [Fraction(x, 2 ** (s * j)) for j, x in enumerate(e)]


def test_exact_oracle_matches_enumeration():
    assert exact_minor_sums([[2.0, -1.0], [-1.0, 2.0]]) == [1, 4, 3]
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        a = rng.uniform(-1, 1, (n, n))
        exact = np.array([float(x) for x in exact_minor_sums(a)])
        assert np.allclose(exact, minor_sums_exhaustive(a), rtol=1e-12, atol=1e-14), n


@pytest.mark.parametrize("kind", ["M", "inverse-M"])
@pytest.mark.parametrize("n", [16, 20])
def test_normalized_coeffs_match_exact_oracle(kind, n):
    a = generate(GeneratorSpec(kind, n, 1))
    want = np.array([float(x / math.comb(n, j)) for j, x in enumerate(exact_minor_sums(a))])
    rel = np.abs(normalized_coeffs(a)[1:] - want[1:]) / np.abs(want[1:])
    assert np.max(rel) <= 1e-13, (kind, n, float(np.max(rel)))


def test_inverse_m_coefficients_positive_at_forty():
    # an inverse-M matrix is a P-matrix, so every E_j is a sum of positive minors
    assert np.all(normalized_coeffs(generate(GeneratorSpec("inverse-M", 40, 1))) > 0.0)


@pytest.mark.parametrize("kind", ["M", "singular-M", "similarity-conjugated-M"])
def test_newton_holds_at_sixty_four(kind):
    for seed in range(4):
        a = generate(GeneratorSpec(kind, 64, seed))
        assert newton_check(normalized_coeffs(a)).holds, (kind, seed)
