"""Necessary-condition screener for spectra of entrywise nonnegative matrices.

Four screening conditions on a candidate spectrum: nonnegative power sums,
the power-sum comparison s_k^m <= n^(m-1) s_{km} (the JLL condition), the
Newton inequalities of the Perron-shifted tuple, and the Laffey-Meehan
test (n-1) s_4 >= s_2^2 for traceless tuples of odd n.  Each condition reports
pass / fail / not-applicable with the decisive margin and witness; ``screen``
keys them by name in the report the CLI emits as is.  ``construct_perturbed``
builds the perturbed ten-tuple in closed form.

``screen_many`` validates each spectrum, then runs each condition kernel
once per size n on a ``(B, n)`` block with one power-sum table
s_1..s_max(K, bound, 4); ``screen`` is a batch of one, and a single
condition is ``screen(...).conditions[name]``.  The kernels are numpy
array arithmetic, so a row gives the same result in any block: overflow
leaves +-inf without a warning, and the worst JLL slack skips NaN and
keeps the first (k, m) of a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charcoeff import _coeffs, _newton, ensure_conjugate_closed
from .defaults import DEFAULT_JLL_BOUND, DEFAULT_MOMENT_K
from .errors import InputError
from .linalg import binomials

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# entries of one block's power table (B x K x n complex): 16 MiB
_BLOCK_ENTRIES = 1 << 20


def moments(values, k_max: int) -> np.ndarray:
    """Power sums s_1..s_K of a conjugation-closed spectrum (real parts)."""
    _check_moment_k(k_max)
    return _power_sums(ensure_conjugate_closed(values)[None], k_max)[0]


def _check_moment_k(k_max: int) -> None:
    if k_max < 1:
        raise InputError("moment order K must be >= 1")


def _check_jll_bound(bound: int, n: int) -> None:
    if bound < 2:
        raise InputError("jll bound must be >= 2")
    try:
        float(n) ** (bound - 1)
    except OverflowError:
        raise InputError(f"jll bound {bound} too large for n = {n}: "
                         f"n^{bound - 1} overflows a double") from None


def _power_sums(vals: np.ndarray, k_max: int) -> np.ndarray:
    # s_k reads only slice k, so a longer table extends a shorter one bit for bit
    powers = vals[:, None, :] ** np.arange(1, k_max + 1)[None, :, None]
    return powers.sum(axis=2).real


@dataclass(frozen=True)
class ConditionResult:
    status: str                 # PASS | FAIL | NOT_APPLICABLE
    margin: float | None
    witness: object = None
    note: str = ""


def _moment(s: np.ndarray, k_max: int, tol: float) -> list[ConditionResult]:
    s = s[:, :k_max]
    worst = np.argmin(s, axis=1)
    margin = s[np.arange(len(s)), worst]
    ok = margin >= -tol * np.fmax(1.0, np.max(np.abs(s), axis=1))
    return [ConditionResult(PASS if p else FAIL, m, witness=w + 1,
                            note=f"verified for k <= {k_max}")
            for p, m, w in zip(ok.tolist(), margin.tolist(), worst.tolist())]


def _jll(s: np.ndarray, n: int, bound: int, tol: float) -> list[ConditionResult]:
    """Margin is the most negative normalized slack over k*m <= bound; witness is its (k, m)."""
    pairs = [(k, m) for k in range(1, bound // 2 + 1) for m in range(2, bound // k + 1)]
    k, m = np.array(pairs).T
    with np.errstate(all="ignore"):     # overflow leaves +-inf or NaN, unwarned
        lhs = s[:, k - 1] ** m
        rhs = float(n) ** (m - 1) * s[:, k * m - 1]
        slack = (rhs - lhs) / np.fmax(np.fmax(1.0, np.abs(lhs)), np.abs(rhs))
    slack[np.isnan(slack)] = math.inf
    worst = np.argmin(slack, axis=1)
    margin = slack[np.arange(len(s)), worst]
    note = f"verified up to bound k*m <= {bound}"
    return [ConditionResult(PASS if g >= -tol else FAIL, g,
                            witness=pairs[w] if g < math.inf else None, note=note)
            for g, w in zip(margin.tolist(), worst.tolist())]


def _newton_shift(vals: np.ndarray, tol: float) -> list[ConditionResult]:
    """Shift by a Perron candidate: a maximum-modulus element, real and nonnegative
    within tolerance (the first when several tie).  A spectrum with none is
    unrealizable outright, so the condition reports not-applicable."""
    mod = np.abs(vals)
    maxmod = np.max(mod, axis=1, keepdims=True)
    scale = np.fmax(1.0, maxmod)
    cands = ((np.abs(mod - maxmod) <= tol * scale) & (np.abs(vals.imag) <= tol * scale)
             & (vals.real >= -tol * scale))     # Perron candidates
    has = np.flatnonzero(cands.any(axis=1))
    lam1 = vals.real[has, np.argmax(cands[has], axis=1)]
    # a real shift of a conjugation-closed spectrum is conjugation-closed
    margins, holds, worst_j = _newton(_coeffs(lam1[:, None] - vals[has]), tol)
    own = [0.0 if j is None else mus[j - 1] for mus, j in zip(margins.tolist(), worst_j)]
    out = [ConditionResult(NOT_APPLICABLE, None,
                           note="maximum-modulus element is not real nonnegative")] * len(vals)
    for r, lam, mu, ok, j in zip(has.tolist(), lam1.tolist(), own, holds.tolist(), worst_j):
        out[r] = ConditionResult(PASS if ok else FAIL, mu, witness=j,
                                 note=f"shift by {lam:.12g}")
    return out


def _laffey_meehan(vals: np.ndarray, s: np.ndarray, tol: float) -> list[ConditionResult]:
    n = vals.shape[1]
    moved = np.abs(s[:, 0]) > tol * np.fmax(1.0, np.sum(np.abs(vals), axis=1))
    with np.errstate(all="ignore"):     # rows that are not applicable warn of nothing
        s2sq = s[:, 1] ** 2
        s4 = (n - 1) * s[:, 3]
        margin = s4 - s2sq
    ok = margin >= -tol * np.fmax(np.fmax(1.0, np.abs(s4)), s2sq)
    moment_na = ConditionResult(NOT_APPLICABLE, None,
                                note="applicable only when the first moment is zero")
    even_na = ConditionResult(NOT_APPLICABLE, None, note="applicable only for odd n")
    return [moment_na if mv else even_na if n % 2 == 0 else
            ConditionResult(PASS if p else FAIL, mu)
            for mv, mu, p in zip(moved.tolist(), margin.tolist(), ok.tolist())]


@dataclass(frozen=True)
class ScreeningReport:
    n: int
    conditions: dict            # name -> ConditionResult, in screening order
    params: dict                # {"moment_k", "jll_bound", "tol"}
    all_pass: bool              # no condition fails


def screen(values, moment_k: int = DEFAULT_MOMENT_K,
           jll_bound: int = DEFAULT_JLL_BOUND, tol: float = 1e-9) -> ScreeningReport:
    """Run all four conditions with shared tolerances on one spectrum, as a
    batch of one for :func:`screen_many`."""
    return screen_many([values], moment_k, jll_bound, tol)[0]


def screen_many(spectra, moment_k: int = DEFAULT_MOMENT_K,
                jll_bound: int = DEFAULT_JLL_BOUND, tol: float = 1e-9) -> list[ScreeningReport]:
    """Screen every spectrum of an iterable, in blocks of one size; the
    reports keep its order.  Each item is checked as it is drawn (closure,
    ``moment_k``, ``jll_bound``, then n: C(n, n/2) and n^(jll_bound-1) must
    be doubles); only the coefficients' imaginary-residue error comes later.
    """
    vals = []
    groups: dict[int, list[int]] = {}
    for values in spectra:
        v = ensure_conjugate_closed(values)
        _check_moment_k(moment_k)
        _check_jll_bound(jll_bound, v.size)
        if v.size not in groups:
            binomials(v.size)       # raises when C(n, n/2) is not a double
            groups[v.size] = []
        groups[v.size].append(len(vals))
        vals.append(v)
    k_all = max(moment_k, jll_bound, 4)
    reports = [None] * len(vals)
    for n, where in groups.items():
        step = max(1, _BLOCK_ENTRIES // (k_all * n))
        for lo in range(0, len(where), step):
            rows = where[lo:lo + step]
            block = np.stack([vals[i] for i in rows])
            s = _power_sums(block, k_all)
            per_row = zip(_moment(s, moment_k, tol), _jll(s, n, jll_bound, tol),
                          _newton_shift(block, tol), _laffey_meehan(block, s, tol))
            for i, conds in zip(rows, per_row):
                reports[i] = ScreeningReport(
                    n, dict(zip(("moments", "jll", "newton_shift", "laffey_meehan"), conds)),
                    {"moment_k": moment_k, "jll_bound": jll_bound, "tol": tol},
                    all(c.status != FAIL for c in conds))
    return reports


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
