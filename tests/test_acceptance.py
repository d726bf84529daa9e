"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to
see them) and asserts the criterion afterwards, so the printed verdict
always matches the pytest outcome.
"""

import math
import time
from fractions import Fraction

import numpy as np

from mnewton.charcoeff import coeffs_from_spectrum, newton_check, normalized_coeffs
from mnewton.forms import binomial_identity_sum, build_form
from mnewton.linalg import binomials, subset_masks
from mnewton.mclass import GeneratorSpec, generate
from mnewton.niep import (
    construct_perturbed,
    moments,
    screen,
)
from mnewton.pairsums import (
    MinorPairSums,
    expansion_identity_check,
    feasible_ratio_params,
    identity_pair_count,
    pointwise_check,
    ratio_check,
)

from helpers import minor_sums_exhaustive, poly_roots


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {status}{suffix}")
    return ok


def test_criterion_01_psi_forms_positive_semidefinite():
    failures = []
    t0 = time.time()
    for n in range(2, 11):
        for m in range(1, n):
            form = build_form(n, m, "psi")
            maxabs = float(np.max(np.abs(form.entries)))
            min_eig = float(np.linalg.eigvalsh(form.entries)[0])
            null_dev = float(np.max(np.abs(form.entries @ np.ones(form.dim))))
            if min_eig < -1e-8 * maxabs or null_dev > 1e-8 * maxabs:
                failures.append((n, m, min_eig, null_dev))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    assert _verdict(1, "overlap form PSD + null vector, n <= 10", ok,
                    f"{elapsed:.2f}s"), failures


def test_criterion_02_binomial_identity_exact_zero():
    t0 = time.time()
    bad = [(n, m) for n in range(2, 41) for m in range(1, n)
           if binomial_identity_sum(n, m) != Fraction(0)]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 5.0
    assert _verdict(2, "exact rational identity sum zero, n <= 40", ok,
                    f"{elapsed:.2f}s"), bad


def test_criterion_03_newton_on_generated_classes():
    t0 = time.time()
    failures = []
    for seed in range(1000):
        n = 2 + seed % 7
        for kind in ("M", "inverse-M"):
            a = generate(GeneratorSpec(kind, n, seed))
            rep = newton_check(normalized_coeffs(a), tol=1e-9)
            if not rep.holds:
                failures.append((kind, n, seed, rep.margins.min()))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    assert _verdict(3, "Newton margins on 1000 + 1000 generated matrices", ok,
                    f"{elapsed:.2f}s"), failures[:5]


def test_criterion_04_split_inequalities_all_feasible_params():
    t0 = time.time()
    failures = []
    for seed in range(100):
        n = 2 + seed % 7
        for kind in ("M", "inverse-M"):
            a = generate(GeneratorSpec(kind, n, seed))
            sums = MinorPairSums(a)
            for m, k in feasible_ratio_params(n):
                ratio = ratio_check(sums, m, k, tol=1e-9)
                point = pointwise_check(sums, m, k, tol=1e-9)
                if ratio.margin < -1e-9 * ratio.scale:
                    failures.append(("ratio", kind, seed, m, k, ratio.margin))
                if point.margin < -1e-9 * point.scale:
                    failures.append(("pointwise", kind, seed, m, k, point.margin))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    assert _verdict(4, "split inequalities on 200 generated matrices", ok,
                    f"{elapsed:.2f}s"), failures[:5]


def test_criterion_05_expansion_identities_unrestricted():
    rng = np.random.default_rng(2024)
    failures = []
    for i in range(100):
        n = 2 + i % 6
        a = rng.uniform(-1.0, 1.0, (n, n))
        sums = MinorPairSums(a)
        for m in range(1, n):
            if not expansion_identity_check(sums, m, tol=1e-9):
                failures.append((i, n, m))
    ok = not failures
    assert _verdict(5, "square-expansion identities on 100 random matrices",
                    ok), failures[:5]


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(4096)
    failures = []
    for i in range(200):
        n = 2 + i % 6
        a = rng.uniform(-1.0, 1.0, (n, n))
        fast = normalized_coeffs(a) * binomials(n)
        slow = minor_sums_exhaustive(a)
        dev = np.abs(fast - slow) / np.maximum(1.0, np.abs(slow))
        if np.max(dev) > 1e-8:
            failures.append(("coeffs", i, n, float(np.max(dev))))
    for n in range(1, 11):
        masks = {m: subset_masks(n, m) for m in range(n + 1)}
        for m1 in range(n + 1):
            for m2 in range(n + 1):
                ma, mb = masks[m1], masks[m2]
                inter = np.bitwise_count(ma[:, None] & mb[None, :]).astype(np.intp)
                counts = np.bincount(inter.ravel(), minlength=min(m1, m2) + 1)
                for k in range(min(m1, m2) + 1):
                    if identity_pair_count(n, m1, m2, k) != int(counts[k]):
                        failures.append(("pair_count", n, m1, m2, k))
    ok = not failures
    assert _verdict(6, "coefficient route vs enumeration; closed-form pair counts",
                    ok), failures[:5]


def test_criterion_07_counterexample_regressions():
    failures = []

    rep = newton_check(coeffs_from_spectrum(
        [0.0, math.sqrt(2.0) - 1j, math.sqrt(2.0) + 1j]))
    if abs(rep.margins[0] - (-1.0 / 9.0)) > 1e-12 or rep.worst_j != 1:
        failures.append(("shifted triple margin", rep.margins[0]))

    roots = poly_roots([1.0, -6.0, 14.0, -20.0, 0.0, 0.0, 0.0])
    lam1 = max(z.real for z in roots)
    res = screen(lam1 - roots).conditions["newton_shift"]
    if res.status != "fail" or res.witness != 2:
        failures.append(("six-tuple status", res.status, res.witness))
    if abs(res.margin - ((14.0 / 15.0) ** 2 - 1.0)) > 1e-9:
        failures.append(("six-tuple margin", res.margin))

    # integer-exact margin: s_2 = 30, s_4 = 210 for (3,3,-2,-2,-2)
    s2 = sum(v * v for v in (3, 3, -2, -2, -2))
    s4 = sum(v ** 4 for v in (3, 3, -2, -2, -2))
    if 4 * s4 - s2 ** 2 != -60:
        failures.append(("integer margin", 4 * s4 - s2 ** 2))
    res = screen([3.0, 3.0, -2.0, -2.0, -2.0]).conditions["laffey_meehan"]
    if res.status != "fail" or res.margin != -60.0:
        failures.append(("laffey-meehan", res.status, res.margin))

    nonzero = sorted((z for z in roots if abs(z) > 1e-6),
                     key=lambda z: (z.real, z.imag))
    expected = [1.1649 - 2.0229j, 1.1649 + 2.0229j, 3.6702 + 0.0j]
    for got, want in zip(nonzero, expected):
        if abs(got - want) > 5e-4:
            failures.append(("root", got, want))

    ok = not failures
    assert _verdict(7, "counterexample regressions at stated precision",
                    ok), failures


def test_criterion_08_perturbed_ten_tuple_profile():
    t0 = time.time()
    tup = construct_perturbed(1e-3)
    s = moments(tup, 20)
    rep = screen(tup, moment_k=20)
    jll, shift, mom = (rep.conditions[c] for c in ("jll", "newton_shift", "moments"))
    elapsed = time.time() - t0
    failures = []
    if not s[0] > 0.0:
        failures.append(("s1", s[0]))
    if abs(s[2]) > 1e-12:
        failures.append(("s3", s[2]))
    if not np.all(s[1:] >= -1e-12):
        failures.append(("moments 2..20", s[1:].min()))
    if mom.status != "pass":
        failures.append(("moment condition", mom.status))
    if jll.status != "fail" or jll.witness != (1, 3):
        failures.append(("jll", jll.status, jll.witness))
    if shift.status != "pass":
        failures.append(("newton shift", shift.status))
    ok = not failures and elapsed < 1.0
    assert _verdict(8, "perturbed ten-tuple profile", ok,
                    f"{elapsed:.3f}s"), failures


def test_criterion_09_independence_matrix():
    sqrt2 = math.sqrt(2.0)
    roots = poly_roots([1.0, -6.0, 14.0, -20.0, 0.0, 0.0, 0.0])
    six = max(z.real for z in roots) - roots
    cases = {
        "moments fail / newton pass": (
            screen([1.0, -1.0, -1.0]),
            {"moments": "fail", "newton_shift": "pass"}),
        "moments pass / newton fail": (
            screen([sqrt2, 1j, -1j]),
            {"moments": "pass", "newton_shift": "fail"}),
        "moments+newton pass / jll fail": (
            screen(construct_perturbed(1e-3)),
            {"moments": "pass", "newton_shift": "pass", "jll": "fail"}),
        "moments+jll pass / newton fail": (
            screen(six),
            {"moments": "pass", "jll": "pass", "newton_shift": "fail"}),
    }
    failures = []
    for label, (rep, expected) in cases.items():
        for name, status in expected.items():
            got = rep.conditions[name].status
            if got != status:
                failures.append((label, name, got, status))
    ok = not failures
    assert _verdict(9, "independence patterns in single screening runs",
                    ok), failures


def test_criterion_10_duality_and_averaging():
    t0 = time.time()
    failures = []
    for seed in range(50):
        n = 2 + seed % 7
        a = generate(GeneratorSpec("M", n, seed))
        det = float(np.linalg.det(a))
        inv = np.linalg.inv(a)
        sums_a, sums_inv = MinorPairSums(a), MinorPairSums(inv)
        for m in range(1, n):
            k = 2 * m - n
            if 0 <= k < m:
                lhs = sums_a.value(m, m, k) / det ** 2
                rhs = sums_inv.value(n - m, n - m, 0)
                if abs(lhs - rhs) > 1e-7 * max(1.0, abs(rhs)):
                    failures.append(("duality", seed, m, k, lhs, rhs))
        for m, k in feasible_ratio_params(n):
            if 2 * m - k >= n:
                continue
            lhs = sums_a.value(m, m, k) / identity_pair_count(n, m, m, k)
            acc = 0.0
            for drop in range(n):
                keep = [i for i in range(n) if i != drop]
                acc += (MinorPairSums(a[np.ix_(keep, keep)]).value(m, m, k)
                        / identity_pair_count(n - 1, m, m, k))
            if abs(lhs - acc / n) > 1e-7 * max(1.0, abs(lhs)):
                failures.append(("averaging", seed, m, k, lhs, acc / n))
    elapsed = time.time() - t0
    ok = not failures
    assert _verdict(10, "duality and averaging identities on 50 matrices", ok,
                    f"{elapsed:.2f}s"), failures[:5]
