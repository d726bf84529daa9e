"""Necessary-condition screener for spectra of entrywise nonnegative matrices.

Four screening conditions on a candidate spectrum: nonnegative power sums,
the power-sum comparison s_k^m <= n^(m-1) s_{km} (the JLL condition), the
Newton inequalities of the Perron-shifted tuple, and the Laffey-Meehan
test (n-1) s_4 >= s_2^2 for traceless tuples of odd n.  Each condition reports
pass / fail / not-applicable with the decisive margin and witness; ``screen``
keys them by name in the report the CLI emits as is.  ``construct_perturbed``
builds the perturbed ten-tuple in closed form.

``screen`` makes one pass per spectrum: it validates conjugate closure once,
builds one table of power sums s_1..s_max(K, bound, 4), and hands both to
the four private kernels.  Each public condition function validates and
then calls the same kernel, so each condition has one route.  The scalar
loops (the JLL comparison, the coefficient recurrence) run on Python
numbers, which round exactly as numpy scalars do; numpy's array forms do
not always, so they are not vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charcoeff import _coeffs, ensure_conjugate_closed, newton_check
from .errors import InputError

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

DEFAULT_MOMENT_K = 20
DEFAULT_JLL_BOUND = 30


def moments(values, k_max: int) -> np.ndarray:
    """Power sums s_1..s_K of a conjugation-closed spectrum (real parts)."""
    _check_moment_k(k_max)
    return _power_sums(ensure_conjugate_closed(values), k_max)


def _check_moment_k(k_max: int) -> None:
    if k_max < 1:
        raise InputError("moment order K must be >= 1")


def _check_jll_bound(bound: int) -> None:
    if bound < 2:
        raise InputError("jll bound must be >= 2")


def _power_sums(vals: np.ndarray, k_max: int) -> np.ndarray:
    # s_k depends only on row k of the table, so a longer table extends a
    # shorter one bit for bit
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
    return _moment(moments(values, k_max), k_max, tol)


def _moment(s: np.ndarray, k_max: int, tol: float) -> ConditionResult:
    s = s[:k_max]
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
    _check_jll_bound(bound)
    vals = ensure_conjugate_closed(values)
    return _jll(_power_sums(vals, bound), vals.size, bound, tol)


def _jll(s: np.ndarray, n: int, bound: int, tol: float) -> ConditionResult:
    # a scalar loop over Python floats: numpy's array power can differ from
    # the scalar one in the last bit, which would move margins
    s = s.tolist()
    try:
        n_pow = [float(n) ** (m - 1) for m in range(bound + 1)]
    except OverflowError:
        raise InputError(f"jll bound {bound} too large for n = {n}: "
                         f"n^{bound - 1} overflows a double") from None
    worst = math.inf
    worst_pair = None
    for k in range(1, bound // 2 + 1):
        sk = s[k - 1]
        for m in range(2, bound // k + 1):
            try:
                lhs = sk ** m
            except OverflowError:   # numpy's scalar power gives +-inf here
                lhs = math.copysign(math.inf, sk) if m % 2 else math.inf
            rhs = n_pow[m] * s[k * m - 1]
            slack = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
            if slack < worst:
                worst, worst_pair = slack, (k, m)
    status = PASS if worst >= -tol else FAIL
    return ConditionResult(status, worst, witness=worst_pair,
                           note=f"verified up to bound k*m <= {bound}")


def newton_shift_condition(values, tol: float = 1e-9) -> ConditionResult:
    """Newton inequalities of the tuple shifted by its dominant element.

    The maximum-modulus element must be real and nonnegative within
    tolerance (a Perron candidate); ties are broken in favor of a real
    nonnegative representative, and a spectrum with no such candidate is
    unrealizable outright, so the condition reports not-applicable.
    """
    return _newton_shift(ensure_conjugate_closed(values), tol)


def _newton_shift(vals: np.ndarray, tol: float) -> ConditionResult:
    scale = max(1.0, float(np.max(np.abs(vals))))
    maxmod = float(np.max(np.abs(vals)))
    near = np.abs(np.abs(vals) - maxmod) <= tol * scale
    real_nonneg = (np.abs(vals.imag) <= tol * scale) & (vals.real >= -tol * scale)
    cands = np.nonzero(near & real_nonneg)[0]
    if cands.size == 0:
        return ConditionResult(NOT_APPLICABLE, None,
                               note="maximum-modulus element is not real nonnegative")
    lam1 = float(vals[cands[0]].real)
    # a real shift of a conjugation-closed spectrum is conjugation-closed
    report = newton_check(_coeffs(lam1 - vals), tol)
    margin = float(np.min(report.margins)) if report.margins.size else 0.0
    status = PASS if report.holds else FAIL
    return ConditionResult(status, margin,
                           witness=report.worst_j, note=f"shift by {lam1:.12g}")


def laffey_meehan_condition(values, tol: float = 1e-9) -> ConditionResult:
    """(n-1) s_4 >= s_2^2, applicable only to odd n with vanishing first moment."""
    vals = ensure_conjugate_closed(values)
    return _laffey_meehan(vals, _power_sums(vals, 4), tol)


def _laffey_meehan(vals: np.ndarray, s: np.ndarray, tol: float) -> ConditionResult:
    n = vals.size
    abs_sum = float(np.sum(np.abs(vals)))
    if abs(s[0]) > tol * max(1.0, abs_sum):
        return ConditionResult(NOT_APPLICABLE, None,
                               note="applicable only when the first moment is zero")
    if n % 2 == 0:
        return ConditionResult(NOT_APPLICABLE, None, note="applicable only for odd n")
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
    """Run all four conditions with shared tolerances on one spectrum.

    One pass: the spectrum is validated once and its power sums
    s_1..s_max(moment_k, jll_bound, 4) are built once; every condition
    reads them, with the same results as its public function.
    """
    vals = ensure_conjugate_closed(values)
    _check_moment_k(moment_k)
    _check_jll_bound(jll_bound)
    s = _power_sums(vals, max(moment_k, jll_bound, 4))
    conditions = {
        "moments": _moment(s, moment_k, tol),
        "jll": _jll(s, vals.size, jll_bound, tol),
        "newton_shift": _newton_shift(vals, tol),
        "laffey_meehan": _laffey_meehan(vals, s, tol),
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
