"""Answers known by construction, exact oracles, and the verdict checks.

Every verdict the package returns is compared with an answer that holds
by construction.  A disagreement, an exception or exit code 2 makes the
item an error.  Errors that match one of the defects documented in
``KNOWN_DEFECTS`` (present at the commit that introduced the benchmark)
are counted but do not make the run incorrect; any other error does.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

KNOWN_DEFECTS = {
    "newton-trace-recursion":
        "Newton fails, yet the eigenvalue-route coefficients of the same matrix satisfy it",
    "singular-m-generator-inexact":
        "a generated singular-M matrix has an eigenvalue below zero (its Perron value is "
        "short of the spectral radius), so it is classified not-M",
    "inverse-m-absolute-det":
        "an inverse-M matrix is rejected because |det| <= tol is an absolute test",
    "dual-absolute-det":
        "the dual minor identity check calls a nonsingular matrix singular by |det| <= tol",
    "jll-roundoff":
        "JLL fails on a realizable spectrum (round-off in s_km amplified by n^(m-1))",
    "laffey-meehan-even-n":
        "Laffey-Meehan fails on a realizable traceless spectrum of even order",
}

CLASSIFY_TOL = 1e-9      # the package's default tolerance, used by classify
DUAL_DET_TOL = 1e-8      # the default tolerance of dual_minor_identity_check
DUAL_CHECK_MAX_N = 10    # the dual identity is checked up to this order
MIN_EIG_RTOL = 1e-8      # dense minimum eigenvalue vs exact, relative to max |theta|
CSV_RTOL = 1e-12


# ---------------------------------------------------------------- forms

def form_weight(n: int, m: int, kind: str, j: int) -> Fraction:
    """Entry f(j) of a form at overlap j = |alpha & beta|, exactly."""
    if kind == "phi":
        return Fraction(j)
    if kind == "tilde_phi":
        return Fraction(m - j + 1)
    if kind == "tilde_psi":
        return Fraction(1, m - j + 1)
    if kind == "psi":
        return m * (n - m) - Fraction((m + 1) * (n - m + 1) * (m - j), m - j + 1)
    raise ValueError(f"unknown form kind {kind!r}")


def eberlein(n: int, m: int, d: int, i: int) -> int:
    """Eigenvalue of the distance-d graph of the Johnson scheme J(n, m) on eigenspace i."""
    return sum((-1) ** h * math.comb(i, h) * math.comb(m - i, d - h) * math.comb(n - m - i, d - h)
               for h in range(d + 1))


def form_eigenvalues(n: int, m: int, kind: str) -> list[Fraction]:
    """Exact eigenvalues theta_0..theta_m of a form: sum_j f(j) E_{m-j}(i)."""
    return [sum(form_weight(n, m, kind, j) * eberlein(n, m, m - j, i) for j in range(m + 1))
            for i in range(m + 1)]


def colex_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """Size-m subsets of {0..n-1} in colexicographic order."""
    return sorted(combinations(range(n), m), key=lambda s: s[::-1])


def form_entries(n: int, m: int, kind: str) -> np.ndarray:
    """Dense float entries f(|alpha & beta|) in the colex basis."""
    subsets = [set(s) for s in colex_subsets(n, m)]
    weights = [float(form_weight(n, m, kind, j)) for j in range(m + 1)]
    return np.array([[weights[len(a & b)] for b in subsets] for a in subsets])


# ---------------------------------------------------------------- coefficients

def exact_minor_sums(a) -> list[Fraction]:
    """Exact E_0..E_n of a float matrix, by Faddeev-LeVerrier over the integers.

    The float entries are exact dyadic rationals, so 2^s * A is an integer
    matrix whose characteristic coefficients are integers.
    """
    fr = [[Fraction(float(x)) for x in row] for row in np.asarray(a, dtype=float)]
    n = len(fr)
    s = max(f.denominator.bit_length() - 1 for row in fr for f in row)
    mat = np.array([[int(f * (1 << s)) for f in row] for row in fr], dtype=object)
    b = np.identity(n, dtype=int).astype(object)
    e = [1]
    for k in range(1, n + 1):
        ab = mat.dot(b)
        c = -sum(ab[i, i] for i in range(n)) // k
        e.append((-1) ** k * c)
        for i in range(n):
            ab[i, i] += c
        b = ab
    return [Fraction(x, 1 << (s * j)) for j, x in enumerate(e)]


def coeff_rel_err(a, coeffs) -> float:
    """Largest relative error of c_1..c_{n-1} against the exact normalized coefficients.

    The determinant coefficient c_n is left out: for singular-M input its
    exact value is itself of round-off size.
    """
    exact = exact_minor_sums(a)
    n = len(exact) - 1
    want = [float(e / math.comb(n, j)) for j, e in enumerate(exact)]
    return max((abs(float(coeffs[j]) - want[j]) / abs(want[j]) for j in range(1, n) if want[j]),
               default=0.0)


def eigen_route_newton(a, tol: float = 1e-9) -> bool:
    """Newton verdict from coefficients built by the stable eigenvalue route."""
    n = a.shape[0]
    e = np.real(np.poly(np.linalg.eigvals(a))) * (-1.0) ** np.arange(n + 1)
    c = e / np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    c = c / np.max(np.abs(c))
    margins = c[1:n] ** 2 - c[:n - 1] * c[2:]
    return bool(np.all(margins >= -tol * np.maximum(c[1:n] ** 2, np.finfo(float).tiny)))


# ---------------------------------------------------------------- verdicts

def _known_or_error(label: str, known: str | None, what: str) -> tuple[str, str]:
    return (label, f"known:{known}") if known else (label, f"error:{what}")


def check_matrix(item: dict, rec: dict) -> list[tuple[str, str]]:
    """Problems with one matrix-sweep item; empty when every verdict matches."""
    label = f"{item['kind']} n={item['n']} seed={item['seed']}"
    if "error" in rec:
        return [(label, f"error:raised {rec['error']}")]
    kind, n = item["kind"], item["n"]
    det = abs(rec["det"])
    out = []
    if not rec["newton"]:
        out.append(_known_or_error(label, "newton-trace-recursion" if rec["eig_newton"] else None,
                                   "Newton fails"))
    if kind == "M" and rec["m_class"] != "M-nonsingular":
        out.append((label, f"error:classified {rec['m_class']}"))
    if kind == "singular-M" and rec["m_class"] not in ("M-nonsingular", "M-singular"):
        out.append(_known_or_error(label, "singular-m-generator-inexact"
                                   if rec["min_eig_re"] < 0 else None,
                                   f"classified {rec['m_class']}"))
    if kind == "inverse-M" and not rec["is_inverse_m"]:
        out.append(_known_or_error(label, "inverse-m-absolute-det" if det <= CLASSIFY_TOL else None,
                                   "is_inverse_m is false"))
    dual = rec.get("dual")
    if isinstance(dual, str):
        known = "dual-absolute-det" if "singular" in dual and det <= DUAL_DET_TOL else None
        out.append(_known_or_error(label, known, dual))
    elif dual is False:
        out.append((label, "error:dual minor identity fails"))
    return out


def feasible_ratio_params(n: int) -> list[tuple[int, int]]:
    return [(m, k) for m in range(1, n) for k in range(m) if 2 * m - k <= n]


def _check_sfunc(expect, code, report, work):
    label = f"sfunc n={expect['n']}"
    if code != 0 or not report.get("holds"):
        return [(label, f"error:exit {code}, holds={report.get('holds')}")]
    if len(report["checks"]) != len(feasible_ratio_params(expect["n"])):
        return [(label, "error:wrong number of (m, k) checks")]
    return []


def _check_forms(expect, code, report, work):
    n, m, kind = expect["n"], expect["m"], expect["kind"]
    label = f"forms {kind} ({n},{m})"
    theta = form_eigenvalues(n, m, kind)
    psd = min(theta) >= 0
    scale = float(max(abs(t) for t in theta))
    problems = []
    if code != (0 if psd else 1):
        problems.append(f"exit {code}")
    if report.get("is_psd") is not psd:
        problems.append(f"is_psd={report.get('is_psd')}, exact min eigenvalue {min(theta)}")
    elif abs(report["min_eigenvalue"] - float(min(theta))) > MIN_EIG_RTOL * scale:
        problems.append(f"min eigenvalue {report['min_eigenvalue']} vs exact {min(theta)}")
    if not report["structure"]["ok"] or report["dim"] != math.comb(n, m):
        problems.append("structure or dimension")
    if "csv" in expect:
        with open(work / expect["csv"], newline="", encoding="utf-8") as fh:
            got = np.array([[float(x) for x in row] for row in csv.reader(fh)])
        want = form_entries(n, m, kind)
        if got.shape != want.shape or np.max(np.abs(got - want)) > CSV_RTOL * np.max(np.abs(want)):
            problems.append("exported CSV entries")
    return [(label, "error:" + "; ".join(problems))] if problems else []


def _check_identity(expect, code, report, work):
    if code != 0 or report.get("sum") != "0":
        return [("identity", f"error:exit {code}, sum {report.get('sum')}")]
    return []


def _check_niep(expect, code, report, work):
    reports = {r["file"]: r for r in report.get("reports", [])}
    out = []
    any_fail = False
    for spec in expect["manifest"]:
        label = f"niep {spec['file']} {spec['family']} n={spec['n']}"
        rep = reports.get(spec["file"])
        if rep is None:
            out.append((label, "error:missing from report"))
            continue
        failed = sorted(name for name, c in rep["conditions"].items() if c["status"] == "fail")
        any_fail |= bool(failed)
        if not spec["realizable"]:
            if spec["must_fail"] not in failed:
                out.append((label, f"error:{spec['must_fail']} passes on an unrealizable spectrum"))
            continue
        for name in failed:
            if name == "jll":
                known = "jll-roundoff"
            elif name == "laffey_meehan" and spec["n"] % 2 == 0:
                known = "laffey-meehan-even-n"
            else:
                known = None
            out.append(_known_or_error(label, known, f"{name} fails on a realizable spectrum"))
    if code != (1 if any_fail else 0):
        out.append(("niep-screen", f"error:exit {code}"))
    return out


_CLI_CHECKS = {"sfunc": _check_sfunc, "forms": _check_forms,
               "identity": _check_identity, "niep": _check_niep}


def check_cli(item: dict, code: int, work: Path) -> list[tuple[str, str]]:
    """Problems with one CLI item, given its exit code and the files it wrote."""
    expect = item["expect"]
    try:
        if code not in (0, 1):
            raise ValueError(f"exit {code}")
        report = json.loads((work / item["out"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        # every verdict the call carries is lost
        labels = [s["file"] for s in expect["manifest"]] if expect["check"] == "niep" else [item["argv"][0]]
        return [(label, f"error:{exc}") for label in labels]
    return _CLI_CHECKS[expect["check"]](expect, code, report, work)
