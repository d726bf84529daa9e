import math
from fractions import Fraction

import numpy as np
import pytest

from mnewton.charcoeff import coeffs_from_spectrum, newton_check, normalized_coeffs
from mnewton import charcoeff, niep
from mnewton.errors import InputError
from mnewton.linalg import binomials
from mnewton.niep import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    moments,
    screen,
    screen_many,
)

from helpers import construct_perturbed, poly_roots

SQRT2 = math.sqrt(2.0)

MOMENT_FAIL_TRIPLE = (1.0, -1.0, -1.0)
MOMENT_PASS_TRIPLE = (SQRT2, 1j, -1j)
LAFFEY_FAIL_FIVE = (3.0, 3.0, -2.0, -2.0, -2.0)
TEN_TUPLE = (3.0, 1.0, 1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0)


def p_root_six_tuple():
    """Shifted root tuple of x^6 - 6x^5 + 14x^4 - 20x^3."""
    roots = poly_roots([1.0, -6.0, 14.0, -20.0, 0.0, 0.0, 0.0])
    lam1 = max(z.real for z in roots)
    return lam1 - roots


def test_moments_hand_values():
    assert np.allclose(moments(MOMENT_FAIL_TRIPLE, 3), [-1.0, 3.0, -1.0])
    assert np.allclose(moments(MOMENT_PASS_TRIPLE, 4),
                       [SQRT2, 0.0, 2.0 * SQRT2, 6.0])
    assert np.allclose(moments(TEN_TUPLE, 4), [0.0, 30.0, 0.0, 150.0])


def test_moments_validation():
    with pytest.raises(InputError):
        moments((1.0, 2.0), 0)
    with pytest.raises(InputError):
        moments((1j, 2.0), 3)


def test_moment_condition_cases():
    res = screen(MOMENT_FAIL_TRIPLE).conditions["moments"]
    assert res.status == FAIL
    assert res.margin == pytest.approx(-1.0)
    assert res.witness == 1
    assert screen((0.0, 2.0, 2.0)).conditions["moments"].status == PASS
    assert screen(MOMENT_PASS_TRIPLE).conditions["moments"].status == PASS


def test_jll_single_value_passes_with_equality():
    res = screen((2.5,), jll_bound=20).conditions["jll"]
    assert res.status == PASS
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_jll_perturbed_tuple_fails_at_1_3():
    res = screen(construct_perturbed(1e-3)).conditions["jll"]
    assert res.status == FAIL
    assert res.witness == (1, 3)


def test_jll_six_tuple_passes():
    res = screen(p_root_six_tuple(), jll_bound=30).conditions["jll"]
    assert res.status == PASS


def test_jll_validation():
    with pytest.raises(InputError):
        screen((1.0,), jll_bound=1)


def test_jll_bound_beyond_double_range_is_input_error():
    # 100^199 overflows a double: an input error, not a verdict or a traceback
    with pytest.raises(InputError, match=r"jll bound 200 .*n = 100"):
        screen(np.ones(100), jll_bound=200)


# integer spectra whose power sums s_1..s_26 are exact doubles; JLL fails
# only on the last
EXACT_SPECTRA = (LAFFEY_FAIL_FIVE, (4.0, -1.0, -1.0, -1.0, -1.0),   # J - I of order 5
                 (2.0, -1.0, -1.0), (1.0, 1.0, 1.0, 1.0), (1.0, -2.0))


@pytest.mark.parametrize("values", EXACT_SPECTRA)
def test_jll_and_laffey_meehan_margins_match_exact_slack(values):
    # the witness is not pinned: ties at round-off may move it
    eps, tol = np.finfo(float).eps, 1e-9
    n = len(values)
    s = [sum(Fraction(v) ** k for v in values) for k in range(27)]
    for bound in (2, 6, 26):
        slack = min((n ** (m - 1) * s[k * m] - s[k] ** m)
                    / max(1, abs(s[k] ** m), abs(n ** (m - 1) * s[k * m]))
                    for k in range(1, bound // 2 + 1) for m in range(2, bound // k + 1))
        res = screen(values, jll_bound=bound, tol=tol).conditions["jll"]
        assert res.status == (PASS if slack >= -tol else FAIL), (values, bound)
        assert abs(res.margin - slack) <= 4 * eps, (values, bound)
    res = screen(values, tol=tol).conditions["laffey_meehan"]
    if s[1]:
        assert res.status == NOT_APPLICABLE
        return
    s4, s2sq = (n - 1) * s[4], s[2] ** 2
    margin = s4 - s2sq
    assert res.status == (PASS if margin >= -tol * max(1, abs(s4), s2sq) else FAIL), values
    assert abs(res.margin - margin) <= 4 * eps * max(1, abs(s4), s2sq), values


def test_newton_shift_passes_after_shift():
    res = screen(MOMENT_FAIL_TRIPLE).conditions["newton_shift"]
    assert res.status == PASS  # shifted tuple is (0, 2, 2)


def test_newton_shift_fails_for_complex_triple():
    res = screen(MOMENT_PASS_TRIPLE).conditions["newton_shift"]
    assert res.status == FAIL
    assert res.witness == 1
    assert res.margin == pytest.approx(-1.0 / 9.0, abs=1e-12)


def test_newton_shift_six_tuple_margin():
    res = screen(p_root_six_tuple()).conditions["newton_shift"]
    assert res.status == FAIL
    assert res.witness == 2
    assert res.margin == pytest.approx((14.0 / 15.0) ** 2 - 1.0, abs=1e-9)


def test_newton_shift_margin_is_that_of_its_witness():
    # the witness is the j minimizing mu_j / max(1, c_j^2); the margin was
    # min_j mu_j, here mu_3 = 0.4624 beside witness 1 with mu_1 = 0.5075
    rng = np.random.default_rng(11)
    spectra = [[2.6, 2.1, 0.9, -0.6]]
    spectra += [rng.uniform(-1.0, 1.0, n) for n in rng.integers(2, 9, 200)]
    for values in spectra:
        res = screen(values).conditions["newton_shift"]
        if res.status == NOT_APPLICABLE:
            continue
        lam = values[int(np.argmax(np.abs(values)))]
        rep = newton_check(coeffs_from_spectrum([lam - v for v in values]))
        assert res.witness == rep.worst_j, values
        assert res.margin == rep.margins[rep.worst_j - 1], values
    assert screen(spectra[0]).conditions["newton_shift"].margin == pytest.approx(0.5075)


def test_newton_shift_not_applicable_without_perron_candidate():
    res = screen((-3.0, 1.0, 1.0)).conditions["newton_shift"]
    assert res.status == NOT_APPLICABLE
    res = screen((2j, -2j, 1.0)).conditions["newton_shift"]
    assert res.status == NOT_APPLICABLE


def test_laffey_meehan_cases():
    res = screen(LAFFEY_FAIL_FIVE).conditions["laffey_meehan"]
    assert res.status == FAIL
    assert res.margin == -60.0
    res = screen((4.0, -1.0, -1.0, -1.0, -1.0)).conditions["laffey_meehan"]   # J - I of order 5
    assert res.status == PASS
    assert res.margin == 640.0
    res = screen((0.0, 0.0, 0.0)).conditions["laffey_meehan"]
    assert res.status == PASS
    assert res.margin == 0.0
    assert screen((1.0, 2.0)).conditions["laffey_meehan"].status == NOT_APPLICABLE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: no condition checks the Perron root")
def test_screen_rejects_a_negative_value_of_largest_modulus():
    # no nonnegative matrix has this spectrum: |-1.001| exceeds every real
    # nonnegative value, yet newton_shift is not applicable and nothing fails
    assert not screen([1.0, 1.0, -1.001]).all_pass


def test_laffey_meehan_not_applicable_for_even_n():
    # direct sums of 2-cycles are realizable; the theorem is stated for odd n
    for values in ((1.0, -1.0, 1.0, -1.0), (1.0, -1.0) * 3):
        res = screen(values).conditions["laffey_meehan"]
        assert res.status == NOT_APPLICABLE and res.margin is None
        assert screen(values).all_pass
    assert screen(TEN_TUPLE).conditions["laffey_meehan"].status == NOT_APPLICABLE
    # the first-moment test still comes first
    assert screen((1.0, 2.0)).conditions["laffey_meehan"].note == \
        "applicable only when the first moment is zero"


SCREEN_SPECTRA = {
    "real": (2.0, 0.5, -1.0, -0.25),
    "complex-pairs": (3.0, 1.0 + 1.0j, 1.0 - 1.0j, -0.5 + 2.0j, -0.5 - 2.0j),
    "n1": (2.5,),
    "n2": (1.0, -1.0),
    "ten-tuple": TEN_TUPLE,
    "scaled-laffey-meehan": tuple(7.5 * x for x in LAFFEY_FAIL_FIVE),
    "overflowing": (1e200, 1.0, 1.0),
}
SCREEN_PARAMS = ((20, 30), (1, 2), (40, 3), (4, 6))


def _same_value(a, b):
    # floats by repr: NaN equals NaN, and -0.0 differs from 0.0
    return type(a) is type(b) and (repr(a) == repr(b) if isinstance(a, float) else a == b)


def test_screen_validates_the_spectrum_once(monkeypatch):
    calls = []
    validate = niep.ensure_conjugate_closed

    def counted(values):
        calls.append(values)
        return validate(values)

    for module in (niep, charcoeff):
        monkeypatch.setattr(module, "ensure_conjugate_closed", counted)
    screen(SCREEN_SPECTRA["complex-pairs"])
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k_max, bound", SCREEN_PARAMS)
@pytest.mark.parametrize("name", sorted(SCREEN_SPECTRA))
def test_screen_conditions_ignore_the_others_parameters(name, k_max, bound):
    # the power table has length max(K, bound, 4); a condition must read only
    # its own part of it, so its result is the one its own parameter gives
    values = SCREEN_SPECTRA[name]
    tol = 1e-9
    rep = screen(values, k_max, bound, tol)
    own = {"moments": screen(values, k_max, 2, tol), "jll": screen(values, 1, bound, tol),
           "newton_shift": screen(values, 1, 2, tol), "laffey_meehan": screen(values, 1, 2, tol)}
    assert list(rep.conditions) == list(own)
    for cond, alone in own.items():
        for field in ("status", "margin", "witness", "note"):
            assert _same_value(getattr(rep.conditions[cond], field),
                               getattr(alone.conditions[cond], field)), (cond, field)


def _family_spectra():
    """Mixed sizes in a shuffled order: the five niep-batch families at n = 3..12,
    the edge cases n = 1 and 2, no Perron candidate, an overflowing power
    table and an all-NaN JLL slack."""
    rng = np.random.default_rng(404)
    out = []
    for n in range(3, 13):
        b = rng.uniform(0.0, 1.0, (n, n))
        row = (rng.uniform(size=n) < 0.5).astype(float)
        row[0], row[1] = 0.0, 1.0
        out += [np.linalg.eigvals(rng.uniform(0.01, 1.0, (n, n))),
                np.linalg.eigvalsh(b + b.T),
                np.fft.fft(row),
                construct_perturbed(float(rng.uniform(1e-4, 1e-2))),
                float(rng.uniform(0.1, 10.0)) * np.array(LAFFEY_FAIL_FIVE)]
    out += [(2.5,), (1.0, -1.0), (-3.0, 1.0, 1.0), (2j, -2j, 1.0), (1e200, 1.0, 1.0),
            (1e200 + 1e200j, 1e200 - 1e200j)]
    return [out[i] for i in rng.permutation(len(out))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [None, 1, 97])
@pytest.mark.parametrize("k_max, bound", SCREEN_PARAMS + ((25, 2),))
def test_screen_many_equals_screen_on_each(monkeypatch, k_max, bound, block):
    spectra = _family_spectra()
    want = [screen(v, k_max, bound, 1e-9) for v in spectra]
    if block is not None:       # blocks of one row and blocks that split a size group
        monkeypatch.setattr(niep, "_BLOCK_ENTRIES", block)
    got = screen_many(iter(spectra), k_max, bound, 1e-9)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.n, g.params, g.all_pass) == (w.n, w.params, w.all_pass)
        assert list(g.conditions) == list(w.conditions)
        for cond, res in w.conditions.items():
            for field in ("status", "margin", "witness", "note"):
                assert _same_value(getattr(g.conditions[cond], field), getattr(res, field)), \
                    (cond, field)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_screen_many_covers_the_named_edge_cases():
    reps = screen_many([(1e200, 1.0, 1.0), (1e200 + 1e200j, 1e200 - 1e200j), (-3.0, 1.0, 1.0)])
    for rep in reps[:2]:        # every JLL slack is NaN: no witness, margin inf
        jll = rep.conditions["jll"]
        assert (jll.status, jll.margin, jll.witness) == (PASS, math.inf, None)
    assert reps[2].conditions["newton_shift"].status == NOT_APPLICABLE
    assert screen_many([]) == []


def test_screen_many_reports_the_first_bad_item_as_drawn():
    drawn = []

    def spectra():
        for v in ((1.0, 2.0), (1j,), (1.0,) * 100, "never drawn"):
            drawn.append(v)
            yield v

    with pytest.raises(InputError, match="not closed under conjugation"):
        screen_many(spectra())
    assert len(drawn) == 2
    with pytest.raises(InputError, match=r"jll bound 200 .*n = 100"):
        screen_many([(1.0, 2.0), (1.0,) * 100, (1j,)], jll_bound=200)
    with pytest.raises(InputError, match="moment order K must be >= 1"):
        screen_many([(1.0, 2.0), (1j,)], moment_k=0)


def test_order_beyond_double_binomials_is_input_error():
    # C(1029, 514) is a double and C(1030, 515) is not
    assert float(math.comb(1029, 514)) < math.inf
    with pytest.raises(OverflowError):
        float(math.comb(1030, 515))
    values = np.full(1030, 2.0)
    for call in (lambda: coeffs_from_spectrum(values), lambda: normalized_coeffs(np.eye(1030)),
                 lambda: screen(values),
                 lambda: screen_many([(1.0,), values, (1j,)])):
        with pytest.raises(InputError, match="n = 1030"):
            call()
    assert coeffs_from_spectrum(np.full(1029, 2.0))[0] == 1.0


def test_screen_error_order_is_spectrum_then_moment_k_then_jll_bound():
    with pytest.raises(InputError, match="not closed under conjugation"):
        screen([1j], moment_k=0)
    with pytest.raises(InputError, match="moment order K must be >= 1"):
        screen([1.0], moment_k=0, jll_bound=1)
    with pytest.raises(InputError, match="jll bound must be >= 2"):
        screen([1.0], moment_k=1, jll_bound=1)


def test_screen_independence_patterns():
    # moments fail, shifted Newton passes
    rep = screen(MOMENT_FAIL_TRIPLE)
    assert rep.conditions["moments"].status == FAIL
    assert rep.conditions["newton_shift"].status == PASS

    # moments pass, shifted Newton fails
    rep = screen(MOMENT_PASS_TRIPLE)
    assert rep.conditions["moments"].status == PASS
    assert rep.conditions["newton_shift"].status == FAIL

    # moments and shifted Newton pass, the power-sum comparison fails
    rep = screen(construct_perturbed(1e-3))
    assert rep.conditions["moments"].status == PASS
    assert rep.conditions["newton_shift"].status == PASS
    assert rep.conditions["jll"].status == FAIL

    # moments and power-sum comparison pass, shifted Newton fails
    rep = screen(p_root_six_tuple())
    assert rep.conditions["moments"].status == PASS
    assert rep.conditions["jll"].status == PASS
    assert rep.conditions["newton_shift"].status == FAIL


def test_screen_laffey_meehan_is_independent():
    rep = screen(LAFFEY_FAIL_FIVE)
    assert rep.conditions["moments"].status == PASS
    assert rep.conditions["jll"].status == PASS
    assert rep.conditions["newton_shift"].status == PASS
    assert rep.conditions["laffey_meehan"].status == FAIL
    assert not rep.all_pass


def test_screen_nonnegative_tuple_passes_everything():
    rep = screen((0.5, 1.5, 2.0, 0.0))
    assert all(c.status != FAIL for c in rep.conditions.values())
    assert rep.all_pass


def test_screen_random_nonnegative_tuples_pass():
    # any nonnegative real tuple is the spectrum of a diagonal nonnegative matrix
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        rep = screen(rng.uniform(0.0, 3.0, n))
        assert rep.all_pass


def test_screen_spectra_of_random_nonnegative_matrices():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 1.0, (n, n))
        e = normalized_coeffs(a) * binomials(n)
        coeffs = [(-1.0) ** j * e[j] for j in range(n + 1)]
        lam = poly_roots(coeffs)
        rep = screen(lam)
        assert rep.all_pass, (n, lam, [c for c in rep.conditions.values() if c.status == FAIL])


def test_construct_perturbed_profile():
    for eps in (1e-12, 1e-7, 1e-3, 1e-2):
        t = construct_perturbed(eps)
        s = moments(t, 20)
        assert s[0] > 0.0, eps
        assert abs(s[2]) <= 1e-12, eps
        assert np.all(s[1:] >= -1e-12), eps
        # cube sum of the three moved entries: (3+t1)^3 + (1+t2)^3 + x^3 = 20
        assert abs(t[0] ** 3 + t[1] ** 3 + t[6] ** 3 - 20.0) <= 1e-13, eps


def test_construct_perturbed_continuity_at_zero():
    t = construct_perturbed(1e-7)
    assert np.max(np.abs(t - np.array(TEN_TUPLE))) <= 1e-4


def test_construct_perturbed_validation():
    with pytest.raises(InputError):
        construct_perturbed(0.0)
    with pytest.raises(InputError):
        construct_perturbed(0.5)


def test_jll_first_pair_matches_shifted_newton_sign():
    # the (k, m) = (1, 2) comparison is sign-equivalent to the first Newton
    # margin of the shifted tuple: n s_2 - s_1^2 is shift invariant
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        lam = np.sort(rng.uniform(-1.5, 2.5, n))[::-1]
        lam[0] = max(abs(lam[0]), float(np.max(np.abs(lam)))) + 0.1
        shifted = screen(lam).conditions["newton_shift"]
        assert shifted.status in (PASS, FAIL)
        s = moments(lam, 2)
        ref = n * s[1] - s[0] ** 2
        rep = newton_check(coeffs_from_spectrum(float(lam[0]) - lam))
        mu1 = rep.margins[0]
        if abs(ref) > 1e-9:
            assert mu1 * ref >= 0 or abs(mu1) <= 1e-12
