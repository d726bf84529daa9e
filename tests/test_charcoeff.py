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

from helpers import (
    conjugate_closed_numpy,
    exact_coeffs,
    exact_minor_sums,
    minor_sums_exhaustive,
    same_bits,
)

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
def test_coeffs_from_spectrum_within_4e15_of_exact_coeffs(kind):
    # an accuracy bound against the exact coefficients of the same spectrum;
    # the worst relative error of a nonzero c_j here is 2.1e-15 (singular-M)
    for n in (1, 2, 3, 4, 5, 7, 10, 12, 16, 24, 33, 48, 64):
        for seed in range(2):
            vals = np.linalg.eigvals(generate(GeneratorSpec(kind, n, seed)))
            got = coeffs_from_spectrum(vals)
            for j, (g, want) in enumerate(zip(got.tolist(), exact_coeffs(vals))):
                if want:
                    rel = abs(Fraction(g) - want) / abs(want)
                    assert rel <= 4e-15, (kind, n, seed, j, float(rel))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_coeffs_from_spectrum_non_finite_when_overflowing():
    for vals in ([1e300, -1e300, 1e300], [1e200, 1e200, 1e200], [1e300j, -1e300j],
                 [1e160 + 1e160j, 1e160 - 1e160j, 5.0], [-1e308, -1e308, 2.0, 3.0]):
        assert not np.all(np.isfinite(coeffs_from_spectrum(vals))), vals


def test_exact_coeffs_examples():
    assert exact_coeffs([1.0, 2.0, 3.0]) == [1, 2, Fraction(11, 3), 6]
    assert exact_coeffs([1.0 + 1j, 1.0 - 1j, 0.5]) == [1, Fraction(5, 6), 1, 1]
    # a triangular matrix has its diagonal for spectrum: the two oracles agree
    rng = np.random.default_rng(4)
    for n in range(1, 8):
        a = np.triu(rng.uniform(-1, 1, (n, n)))
        want = [x / math.comb(n, j) for j, x in enumerate(exact_minor_sums(a))]
        assert exact_coeffs(np.diag(a)) == want, n


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


@pytest.mark.parametrize("values", [
    [np.nan], [np.inf], [-np.inf], [complex(np.inf, np.nan)], [complex(1.0, np.nan)],
    [2.0, 1.0 + 1j, complex(np.nan, 0.0)], [1.0 + 3j, complex(1.0, -np.inf)],
])
def test_ensure_conjugate_closed_rejects_non_finite_before_pairing(values):
    with pytest.raises(InputError) as exc:
        ensure_conjugate_closed(values)
    assert str(exc.value) == "spectrum values must be finite"


def test_ensure_conjugate_closed_rejects_non_numbers_and_empty():
    for values in (["x"], [1.0, object()]):
        with pytest.raises(InputError, match="spectrum values must be numbers: "):
            ensure_conjugate_closed(values)
    with pytest.raises(InputError, match="spectrum must be nonempty"):
        ensure_conjugate_closed([])


def same_closure(values):
    """``ensure_conjugate_closed`` returns what the numpy-scalar pairing does,
    bit for bit, or raises the same message."""
    try:
        want = conjugate_closed_numpy(values)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            ensure_conjugate_closed(values)
        return str(got.value) == str(exc)
    got = ensure_conjugate_closed(values)
    return got.dtype == want.dtype and same_bits(got.view(float), want.view(float))


def test_ensure_conjugate_closed_matches_numpy_pairing():
    big = 0.75e308
    cases = [
        [3.0, -1.0, 0.5, 0.0],                                  # all real
        [2.0, -0.5 + 0.5j, -0.5 - 0.5j, 1j, -1j],               # exactly closed
        [2.0 + 1j, 0.5, 1.0 + 1e-12 - 3j, 2.0 - 1j, 1.0 + 3j],  # inexact partner
        [1.0 + 3j, 1.0 - 3j + 1e-6j, 0.5],                      # partner too far
        [1j, 1j, -1j],
        [1.0 + 1e-10j, 1.0],                                    # imaginary part below tol
        [1.5e308 + 1.5e308j, 1.5e308 - 1.5e308j, 1j],           # |value| overflows: tol inf
        # a candidate whose distance overflows a double is passed over
        [big + big * 1j, -big + big * 1j, big - big * 1j, -big - big * 1j],
        [big + big * 1j, -big + big * 1j, -big - big * 1j],
    ]
    for values in cases:
        assert same_closure(values), values
    with pytest.raises(InputError) as exc:
        ensure_conjugate_closed([1.0 + 3j, 1.0 - 3j + 1e-6j, 0.5])
    assert str(exc.value) == ("spectrum is not closed under conjugation: "
                              "no partner for (1+3j)")


PARTS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1e-12, -1e-12, 3.001, 1e-9])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(PARTS, PARTS), min_size=1, max_size=9))
def test_ensure_conjugate_closed_matches_numpy_pairing_on_random_spectra(pairs):
    values = [complex(re, im) for re, im in pairs]
    assert same_closure(values)
    assert same_closure(values + [v.conjugate() for v in values])


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
    with pytest.raises(InputError, match="coefficient vector must be nonempty"):
        newton_check([])


@pytest.mark.parametrize("c", [[math.nan, 1.0, 1.0], [1.0, math.inf, 1.0],
                               [1.0, 1.0, -math.inf], [1.0, 1e200, 1.0],
                               [1.0, 1e300, 1e300, 1.0]])
def test_newton_check_rejects_non_finite_coefficients_and_margins(c):
    # an overflowed coefficient or margin gives no verdict
    with pytest.raises(InputError, match="is not finite"):
        newton_check(c)


def test_newton_check_names_c0_as_a_plain_float():
    with pytest.raises(InputError, match=r"c_0 = 1, got 2\.0$"):
        newton_check(np.array([2.0, 1.0, 1.0]))


def test_newton_check_rejects_an_overflowed_spectrum():
    with pytest.raises(InputError, match=r"c_2 = inf is not finite"):
        newton_check(coeffs_from_spectrum([1e200, 1e200, 1e200]))


def test_newton_check_verdict_is_scale_free():
    # {+-s i} has the margin -s^2, a full violation at every scale
    for s in (1.0, 1e-7):
        rep = newton_check(coeffs_from_spectrum([s * 1j, -s * 1j]))
        assert rep.margins[0] == pytest.approx(-s * s), s
        assert not rep.holds, s


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
