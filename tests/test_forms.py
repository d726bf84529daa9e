import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mnewton.charcoeff import newton_check, normalized_coeffs
from mnewton.errors import InputError
from mnewton.forms import (
    FORM_KINDS,
    FormMatrix,
    _affine_reciprocal,
    _dense_masks,
    _theta,
    _weight,
    binomial_identity_sum,
    build_form,
    psd_check,
    structure_checks,
)
from mnewton.linalg import principal_minors_all, subset_masks
from mnewton.mclass import GeneratorSpec, generate
from mnewton.pairsums import MinorPairSums
from mnewton.serialize import form_to_csv, form_to_json

from helpers import eberlein_theta, incidence_matrix, quadratic_apply, weights_numpy


def test_build_form_psi_2_1():
    f = build_form(2, 1, "psi")
    assert np.array_equal(f.entries, [[1.0, -1.0], [-1.0, 1.0]])


def test_build_form_phi_singletons_identity():
    f = build_form(3, 1, "phi")
    assert np.array_equal(f.entries, np.eye(3))


def test_build_form_tilde_phi_3_2():
    # two distinct 2-subsets of {1,2,3} always share one element: m - j + 1 = 2
    f = build_form(3, 2, "tilde_phi")
    assert np.all(np.diag(f.entries) == 1.0)
    off = f.entries[~np.eye(3, dtype=bool)]
    assert np.all(off == 2.0)


def test_build_form_entries_depend_only_on_overlap():
    for kind in FORM_KINDS:
        f = build_form(5, 2, kind)
        v = incidence_matrix(5, 2)
        j = v @ v.T
        for val in np.unique(j):
            cell = f.entries[j == val]
            assert np.all(cell == cell[0])


def test_build_form_validation():
    with pytest.raises(InputError):
        build_form(4, 0, "psi")
    with pytest.raises(InputError):
        build_form(4, 4, "psi")
    with pytest.raises(InputError):
        build_form(4, 2, "nope")
    with pytest.raises(InputError):
        build_form(16, 8, "psi").entries   # C(16,8) = 12870 over the dense cap


def test_dense_builder_caps_every_dense_route(tmp_path):
    # C(15,6) = 5005 is just over the cap; the form itself and its checks are uncapped
    f = build_form(15, 6, "psi")
    assert psd_check(f)[0] and structure_checks(15, 6).ok
    for dense in (lambda: f.entries, lambda: quadratic_apply(f, np.ones(f.dim)),
                  lambda: form_to_json(f, tmp_path / "f.json"),
                  lambda: form_to_csv(f, tmp_path / "f.csv")):
        with pytest.raises(InputError, match=r"exceeds cap 5000 .*n <= 64"):
            dense()
    assert not (tmp_path / "f.json").exists() and not (tmp_path / "f.csv").exists()
    with pytest.raises(InputError, match="exceeds cap"):
        FormMatrix(30, 15, "psi").entries


def test_dense_masks_are_the_colex_subset_masks():
    for n, m in [(n, m) for n in range(13) for m in range(n + 1)] + [(40, 2), (64, 1), (64, 2)]:
        assert _dense_masks(n, m) == subset_masks(n, m).tolist(), (n, m)
    with pytest.raises(InputError, match="n <= 64"):
        _dense_masks(65, 1)
    with pytest.raises(InputError, match="cannot choose"):
        _dense_masks(3, 4)
    with pytest.raises(InputError, match="cannot choose"):
        _dense_masks(70, 71)
    with pytest.raises(InputError, match="nonnegative"):
        _dense_masks(3, -1)
    with pytest.raises(InputError, match="nonnegative"):
        _dense_masks(-1, 0)


def test_weights_bit_identical_to_float64_array_route():
    for n in range(2, 65):
        for m in range(1, n):
            for kind in FORM_KINDS:
                got = build_form(n, m, kind).weights
                assert all(type(w) is float for w in got)
                want = weights_numpy(n, m, kind)
                assert list(map(repr, got)) == [repr(float(w)) for w in want], (n, m, kind)


def test_psd_check_overflowing_minimum_eigenvalue_is_an_input_error():
    # theta_min of tilde_phi at (1040, 520) is beyond a double; psi's is 0
    with pytest.raises(InputError, match=r"tilde_phi form at \(n, m\) = \(1040, 520\)"):
        psd_check(build_form(1040, 520, "tilde_phi"))
    assert psd_check(build_form(1040, 520, "psi")) == (True, 0.0)


def test_psd_check_psi_2_1():
    ok, min_eig = psd_check(build_form(2, 1, "psi"))
    assert ok
    assert min_eig == pytest.approx(0.0, abs=1e-12)


def test_eigenvalues_match_dense_spectrum():
    # eigenspace i has multiplicity C(n,i) - C(n,i-1); m > n/2 stops at i = n - m
    for n in range(2, 11):
        for m in range(1, n):
            for kind in FORM_KINDS:
                f = build_form(n, m, kind)
                theta = f.eigenvalues
                assert len(theta) == min(m, n - m) + 1
                spectrum = sorted(float(t) for i, t in enumerate(theta)
                                  for _ in range(math.comb(n, i) - math.comb(n, i - 1)
                                                 if i else 1))
                dense = np.linalg.eigvalsh(f.entries)
                scale = float(np.max(np.abs(dense)))
                assert np.max(np.abs(np.array(spectrum) - dense)) <= 1e-9 * scale, (n, m, kind)


def test_theta_matches_eberlein_oracle():
    # the one sum over e against the (m+1)-term Eberlein sum, exactly, for every
    # kind and eigenspace; and (a, b, c) against the paper's weight formulas
    points = [(n, m) for n in range(2, 19) for m in range(1, n)] + [(40, 17), (60, 30), (101, 70)]
    for n, m in points:
        for kind in FORM_KINDS:
            a, b, c = _affine_reciprocal(n, m, kind)
            for d in range(min(m, n - m) + 1):
                assert a + b * d + Fraction(c, d + 1) == _weight(n, m, kind, m - d, Fraction(1))
            for i in range(min(m, n - m) + 1):
                got = _theta(n, m, kind, i)
                assert type(got) is Fraction and got == eberlein_theta(n, m, kind, i), (n, m, kind, i)


def test_psd_check_psi_60_30_exact_without_entries():
    # C(60,30) ~ 1.2e17: only the Johnson-scheme route can decide this
    tracemalloc.start()
    try:
        result = psd_check(build_form(60, 30, "psi"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (True, 0.0)
    assert peak < 10 * 2**20


def test_psd_check_threshold_uses_occurring_overlaps():
    # tilde_phi on 3-subsets of {1..4} is 2J - I: overlaps 2 and 3 give
    # weights 2 and 1, while the weight f(0) = 4 belongs to no entry
    f = build_form(4, 3, "tilde_phi")
    ok, min_eig = psd_check(f)
    assert not ok and min_eig == -1.0
    for factor in (0.9, 1.1):
        tol = factor * 0.5
        dense = np.linalg.eigvalsh(f.entries)[0] >= -tol * np.max(np.abs(f.entries))
        assert psd_check(f, tol)[0] == dense == (factor > 1)


def test_psd_check_all_kinds_small_orders():
    for n in range(2, 9):
        for m in range(1, n):
            for kind in ("phi", "tilde_psi", "psi"):
                ok, min_eig = psd_check(build_form(n, m, kind), tol=1e-8)
                assert ok, (kind, n, m, min_eig)


def test_psd_check_psi_up_to_order_ten():
    for n in range(9, 11):
        for m in range(1, n):
            ok, min_eig = psd_check(build_form(n, m, "psi"), tol=1e-8)
            assert ok, (n, m, min_eig)


def test_tilde_phi_has_single_positive_eigenvalue():
    for n in range(2, 9):
        for m in range(1, n):
            f = build_form(n, m, "tilde_phi")
            eigs = np.linalg.eigvalsh(f.entries)
            scale = float(np.max(np.abs(f.entries)))
            assert int(np.sum(eigs > 1e-8 * scale)) == 1
            assert np.all(eigs[:-1] <= 1e-8 * scale)


def test_psi_null_vector_and_minimum_together():
    for n in range(2, 8):
        for m in range(1, n):
            f = build_form(n, m, "psi")
            e = np.ones(f.dim)
            scale = float(np.max(np.abs(f.entries)))
            assert np.max(np.abs(f.entries @ e)) <= 1e-9 * scale
            assert np.linalg.eigvalsh(f.entries)[0] >= -1e-9 * scale


def test_structure_checks_2_1():
    rep = structure_checks(2, 1)
    assert rep.ok
    assert rep.gramian_exact and rep.complement_exact
    assert rep.null_vector_max <= 1e-12


def test_structure_checks_4_2():
    rep = structure_checks(4, 2, tol=1e-10)
    assert rep.ok
    assert rep.reciprocal_max_dev <= 1e-10
    assert rep.affine_max_dev <= 1e-10


def test_structure_checks_sweep():
    for n in range(2, 9):
        for m in range(1, n):
            assert structure_checks(n, m).ok, (n, m)


def test_structure_checks_uncapped():
    # C(16,8) = 12870 is over the dense cap and C(60,30) ~ 1.2e17 cannot be built
    assert structure_checks(16, 8).ok
    assert structure_checks(60, 30).ok


def _dense_structure(n, m, tol=1e-10):
    """Entrywise structure relations on the dense matrices (the reference route)."""
    v = incidence_matrix(n, m)
    phi, tilde_phi, tilde_psi, psi = (build_form(n, m, kind).entries for kind in FORM_KINDS)
    gramian_exact = bool(np.array_equal(v @ v.T, phi))
    complement_exact = bool(np.array_equal(tilde_phi + phi, float(m + 1) * np.ones_like(phi)))
    reciprocal_max_dev = float(np.max(np.abs(tilde_psi - 1.0 / tilde_phi)))
    affine = (m + 1) * (n - m + 1) * tilde_psi - (n + 1) * np.ones_like(psi)
    affine_max_dev = float(np.max(np.abs(psi - affine)))
    psi_scale = float(np.max(np.abs(psi))) or 1.0
    null_vector_max = float(np.max(np.abs(psi @ np.ones(psi.shape[0])))) / psi_scale
    ok = (gramian_exact and complement_exact and reciprocal_max_dev <= tol
          and affine_max_dev <= tol * psi_scale and null_vector_max <= tol)
    return dict(gramian_exact=gramian_exact, complement_exact=complement_exact,
                reciprocal_max_dev=reciprocal_max_dev, affine_max_dev=affine_max_dev,
                null_vector_max=null_vector_max, ok=ok)


def test_structure_checks_match_dense_route():
    for n in range(2, 9):
        for m in range(1, n):
            got = structure_checks(n, m).__dict__
            want = _dense_structure(n, m)
            assert got["null_vector_max"] == 0.0
            del got["null_vector_max"], want["null_vector_max"]
            assert got == want, (n, m)


def test_incidence_gramian_is_overlap_matrix():
    for n in range(1, 9):
        for m in range(n + 1):
            v = incidence_matrix(n, m)
            assert np.array_equal(v @ v.T, FormMatrix(n, m, "phi").entries), (n, m)


def test_incidence_rows_are_colex_indicators():
    for n in range(1, 9):
        for m in range(n + 1):
            subsets = sorted(itertools.combinations(range(1, n + 1), m), key=lambda s: s[::-1])
            want = [[int(i in s) for i in range(1, n + 1)] for s in subsets]
            got = incidence_matrix(n, m)
            assert got.dtype == np.int64 and got.tolist() == want, (n, m)


def test_incidence_gramian_3_2():
    v = incidence_matrix(3, 2)
    g = v @ v.T
    assert np.all(np.diag(g) == 2)
    assert np.all(g[~np.eye(3, dtype=bool)] == 1)
    assert np.array_equal(g, build_form(3, 2, "phi").entries)


def test_binomial_identity_examples():
    assert binomial_identity_sum(2, 1) == 0
    assert binomial_identity_sum(6, 3) == 0
    assert isinstance(binomial_identity_sum(6, 3), Fraction)
    with pytest.raises(InputError):
        binomial_identity_sum(3, 3)


def test_binomial_identity_small_sweep():
    for n in range(2, 13):
        for m in range(1, n):
            assert binomial_identity_sum(n, m) == 0


def test_quadratic_apply_examples():
    f = build_form(2, 1, "psi")
    assert quadratic_apply(f, np.ones(2)) == pytest.approx(0.0, abs=1e-12)
    assert quadratic_apply(f, principal_minors_all(np.diag([1.0, 2.0]), 1)) == pytest.approx(1.0)
    with pytest.raises(InputError):
        quadratic_apply(f, np.ones(3))


def test_quadratic_apply_nonnegative_on_random_vectors():
    # 48 draws over the 21 cells with n <= 7 puts the total above 1000
    rng = np.random.default_rng(42)
    for n in range(2, 8):
        for m in range(1, n):
            f = build_form(n, m, "psi")
            scale = float(np.max(np.abs(f.entries)))
            for _ in range(48):
                t = rng.normal(size=f.dim)
                bound = 1e-9 * scale * float(t @ t)
                assert quadratic_apply(f, t) >= -bound


def test_quadratic_apply_matches_pair_sum_expansion():
    # t = minor vector: the form value is the overlap-weighted pair-sum total,
    # so the dense form route and the moment route of the profile check each other
    rng = np.random.default_rng(31)
    for n in [*range(2, 13)] * 2:
        a = rng.uniform(-1, 1, (n, n))
        sums = MinorPairSums(a)
        for m in range(1, n):
            f = build_form(n, m, "psi")
            got = quadratic_apply(f, principal_minors_all(a, m))
            weights = [m * (n - m) - (m + 1) * (n - m + 1) * (m - j) / (m - j + 1.0)
                       for j in range(m + 1)]
            expected = float(np.dot(weights, sums.profile(m, m)))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_quadratic_chain_implies_newton():
    # nonnegative form values on the minor vectors force the Newton margins
    for seed in range(15):
        n = 3 + seed % 5
        a = generate(GeneratorSpec("M", n, seed))
        values = []
        for m in range(1, n):
            f = build_form(n, m, "psi")
            scale = float(np.max(np.abs(f.entries)))
            vec = principal_minors_all(a, m)
            val = quadratic_apply(f, vec)
            values.append(val >= -1e-9 * scale * float(vec @ vec))
        if all(values):
            assert newton_check(normalized_coeffs(a), tol=1e-9).holds
