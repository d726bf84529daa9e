"""Necessary-condition screener for spectra of entrywise nonnegative matrices.

Four screening conditions on a candidate spectrum: nonnegative power sums,
the power-sum comparison s_k^m <= n^(m-1) s_{km} (the JLL condition), the
Newton inequalities of the Perron-shifted tuple, and the Laffey-Meehan
test (n-1) s_4 >= s_2^2 for traceless tuples.  Each condition reports
pass / fail / not-applicable with the decisive margin and witness; ``screen``
keys them by name in the report the CLI emits as is.  ``construct_perturbed``
builds the perturbed ten-tuple in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charcoeff import coeffs_from_spectrum, ensure_conjugate_closed, newton_check
from .errors import InputError

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

DEFAULT_MOMENT_K = 20
DEFAULT_JLL_BOUND = 30


def moments(values, k_max: int) -> np.ndarray:
    """Power sums s_1..s_K of a conjugation-closed spectrum (real parts)."""
    if k_max < 1:
        raise InputError("moment order K must be >= 1")
    vals = ensure_conjugate_closed(values)
    powers = vals[None, :] ** np.arange(1, k_max + 1)[:, None]
    return powers.sum(axis=1).real


@dataclass(frozen=True)
class ConditionResult:
    status: str                 # PASS | FAIL | NOT_APPLICABLE
    margin: float | None
    witness: object = None
    note: str = ""


def moment_condition(values, k_max: int = DEFAULT_MOMENT_K,
                     tol: float = 1e-9) -> ConditionResult:
    """All power sums up to k_max must be nonnegative; margin is the smallest."""
    s = moments(values, k_max)
    scale = max(1.0, float(np.max(np.abs(s))))
    worst = int(np.argmin(s))
    margin = float(s[worst])
    status = PASS if margin >= -tol * scale else FAIL
    return ConditionResult(status, margin, witness=worst + 1,
                           note=f"verified for k <= {k_max}")


def jll_condition(values, bound: int = DEFAULT_JLL_BOUND,
                  tol: float = 1e-9) -> ConditionResult:
    """s_k^m <= n^(m-1) s_{km} over all k >= 1, m >= 2 with k*m <= bound.

    Margin is the most negative normalized slack; witness is its (k, m).
    """
    if bound < 2:
        raise InputError("jll bound must be >= 2")
    vals = ensure_conjugate_closed(values)
    n = vals.size
    s = moments(vals, bound)
    worst = np.inf
    worst_pair = None
    for k in range(1, bound // 2 + 1):
        for m in range(2, bound // k + 1):
            lhs = s[k - 1] ** m
            rhs = float(n) ** (m - 1) * s[k * m - 1]
            slack = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
            if slack < worst:
                worst, worst_pair = slack, (k, m)
    status = PASS if worst >= -tol else FAIL
    return ConditionResult(status, float(worst), witness=worst_pair,
                           note=f"verified up to bound k*m <= {bound}")


def newton_shift_condition(values, tol: float = 1e-9) -> ConditionResult:
    """Newton inequalities of the tuple shifted by its dominant element.

    The maximum-modulus element must be real and nonnegative within
    tolerance (a Perron candidate); ties are broken in favor of a real
    nonnegative representative, and a spectrum with no such candidate is
    unrealizable outright, so the condition reports not-applicable.
    """
    vals = ensure_conjugate_closed(values)
    scale = max(1.0, float(np.max(np.abs(vals))))
    maxmod = float(np.max(np.abs(vals)))
    near = np.abs(np.abs(vals) - maxmod) <= tol * scale
    real_nonneg = (np.abs(vals.imag) <= tol * scale) & (vals.real >= -tol * scale)
    cands = np.nonzero(near & real_nonneg)[0]
    if cands.size == 0:
        return ConditionResult(NOT_APPLICABLE, None,
                               note="maximum-modulus element is not real nonnegative")
    lam1 = float(vals[cands[0]].real)
    report = newton_check(coeffs_from_spectrum(lam1 - vals), tol)
    margin = float(np.min(report.margins)) if report.margins.size else 0.0
    status = PASS if report.holds else FAIL
    return ConditionResult(status, margin,
                           witness=report.worst_j, note=f"shift by {lam1:.12g}")


def laffey_meehan_condition(values, tol: float = 1e-9) -> ConditionResult:
    """(n-1) s_4 >= s_2^2, applicable only when the first moment vanishes."""
    vals = ensure_conjugate_closed(values)
    n = vals.size
    s = moments(vals, 4)
    abs_sum = float(np.sum(np.abs(vals)))
    if abs(s[0]) > tol * max(1.0, abs_sum):
        return ConditionResult(NOT_APPLICABLE, None,
                               note="applicable only when the first moment is zero")
    margin = float((n - 1) * s[3] - s[1] ** 2)
    scale = max(1.0, abs((n - 1) * s[3]), s[1] ** 2)
    status = PASS if margin >= -tol * scale else FAIL
    return ConditionResult(status, margin)


@dataclass(frozen=True)
class ScreeningReport:
    n: int
    conditions: dict            # name -> ConditionResult, in screening order
    params: dict                # {"moment_k", "jll_bound", "tol"}
    all_pass: bool              # no condition fails


def screen(values, moment_k: int = DEFAULT_MOMENT_K,
           jll_bound: int = DEFAULT_JLL_BOUND, tol: float = 1e-9) -> ScreeningReport:
    """Run all four conditions with shared tolerances on one spectrum."""
    vals = ensure_conjugate_closed(values)
    conditions = {
        "moments": moment_condition(vals, moment_k, tol),
        "jll": jll_condition(vals, jll_bound, tol),
        "newton_shift": newton_shift_condition(vals, tol),
        "laffey_meehan": laffey_meehan_condition(vals, tol),
    }
    params = {"moment_k": moment_k, "jll_bound": jll_bound, "tol": tol}
    return ScreeningReport(vals.size, conditions, params,
                           all(c.status != FAIL for c in conditions.values()))


# Real 10-tuple with zero first and third moments, positive even moments.
BASE_TEN_TUPLE = (3.0, 1.0, 1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0)
# Tangent direction solving 9 t1 + t2 + 4 t3 = 0 with positive component sum;
# one valid choice among many, fixed for reproducibility.  Only t1 and t2
# are applied: the seventh entry is solved for exactly, with tangent t3.
PERTURBATION_DIRECTION = (-1.0, 13.0, -1.0)
_CUBE_SUM_TARGET = 20.0


def construct_perturbed(eps: float) -> np.ndarray:
    """Real 10-tuple with positive first moment and vanishing third moment.

    Moves the first and second entries of the base tuple by ``eps`` times
    the fixed direction, then sets the seventh entry to the real cube root
    that restores the cube sum (3+t1)^3 + (1+t2)^3 + x^3 = 20 of the three
    moved entries (residual <= 1e-13).  This pins the third moment of the
    full tuple to (numerical) zero while keeping the first positive.  The
    result passes the moment and shifted-Newton conditions but violates
    the power-sum comparison at (k, m) = (1, 3).
    """
    if not 0.0 < eps <= 1e-2:
        raise InputError("eps must lie in (0, 1e-2]")
    t1, t2 = eps * PERTURBATION_DIRECTION[0], eps * PERTURBATION_DIRECTION[1]
    out = np.array(BASE_TEN_TUPLE)
    out[0] += t1
    out[1] += t2
    out[6] = np.cbrt(_CUBE_SUM_TARGET - (3.0 + t1) ** 3 - (1.0 + t2) ** 3)
    return out
