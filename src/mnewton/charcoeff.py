"""Normalized characteristic-polynomial coefficients and Newton margins."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_matrix, binomials

# pairing tolerance for conjugate closure, relative to max(1, max |value|)
CLOSURE_RTOL = 1e-9
# the Newton tolerance never drops below this absolute floor
NEWTON_TOL_FLOOR = 1e-12


def ensure_conjugate_closed(values) -> np.ndarray:
    """Validate that a spectrum is closed under conjugation, return it complex.

    Non-real values are paired greedily, each with the nearest remaining
    candidate for its conjugate; every non-real value must find a partner
    within ``CLOSURE_RTOL * scale``.
    """
    try:
        vals = np.asarray(values, dtype=complex).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"spectrum values must be numbers: {exc}") from None
    if vals.size == 0:
        raise InputError("spectrum must be nonempty")
    if not np.all(np.isfinite(vals)):
        raise InputError("spectrum values must be finite")
    tol = CLOSURE_RTOL * max(1.0, float(np.max(np.abs(vals))))
    nonreal = [i for i in range(vals.size) if abs(vals[i].imag) > tol]
    unmatched = set(nonreal)
    for i in nonreal:
        if i not in unmatched:
            continue
        unmatched.discard(i)
        target = vals[i].conjugate()
        best = None
        best_d = np.inf
        for j in unmatched:
            d = abs(vals[j] - target)
            if d < best_d:
                best, best_d = j, d
        if best is None or best_d > tol:
            raise InputError(
                f"spectrum is not closed under conjugation: no partner for {vals[i]}")
        unmatched.discard(best)
    return vals


def normalized_coeffs(a) -> np.ndarray:
    """Coefficients c_j = E_j / C(n, j), where E_j sums the j x j principal minors.

    E_j is the j-th elementary symmetric function of the eigenvalues, so
    the coefficients come from the spectrum by :func:`coeffs_from_spectrum`;
    the eigenvalues of a real matrix come in exact conjugate pairs.
    """
    return coeffs_from_spectrum(np.linalg.eigvals(as_matrix(a)))


def coeffs_from_spectrum(values) -> np.ndarray:
    """Normalized coefficients of the monic polynomial with the given roots.

    Elementary symmetric functions are accumulated one root at a time (the
    stable recurrence), then scaled by 1 / C(n, j).  The spectrum must be
    conjugation-closed; the residual imaginary part is discarded when below
    ``CLOSURE_RTOL * scale`` and rejected otherwise.
    """
    vals = ensure_conjugate_closed(values)
    n = vals.size
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    for i in range(n):
        r = vals[i]
        for j in range(min(i + 1, n), 0, -1):
            e[j] += r * e[j - 1]
    scale = max(1.0, float(np.max(np.abs(e))))
    resid = float(np.max(np.abs(e.imag)))
    if resid > CLOSURE_RTOL * scale:
        raise InputError(
            f"symmetric functions retain imaginary residue {resid:g} beyond tolerance")
    return e.real / binomials(n)


@dataclass(frozen=True)
class NewtonReport:
    """Margins mu_j = c_j^2 - c_{j-1} c_{j+1} for j = 1..n-1."""
    margins: np.ndarray
    holds: bool
    worst_j: int | None    # j minimizing mu_j / max(1, c_j^2); None when n < 2


def newton_check(c, tol: float = 1e-9) -> NewtonReport:
    """Check c_j^2 >= c_{j-1} c_{j+1} for all inner j.

    Each margin is compared against ``-max(tol * max(1, c_j^2), 1e-12)``:
    relative to the local coefficient magnitude, with an absolute floor.
    """
    cv = np.asarray(c, dtype=float).ravel()
    if cv.size < 1:
        raise InputError("coefficient vector must be nonempty")
    if abs(cv[0] - 1.0) > 1e-9:
        raise InputError(f"coefficient vector must be normalized with c_0 = 1, got {cv[0]!r}")
    n = cv.size - 1
    if n < 2:
        return NewtonReport(np.zeros(0), True, None)
    mid = cv[1:n]
    margins = mid * mid - cv[0:n - 1] * cv[2:n + 1]
    ref = np.maximum(1.0, mid * mid)
    thresh = np.maximum(tol * ref, NEWTON_TOL_FLOOR)
    holds = bool(np.all(margins >= -thresh))
    worst_j = int(np.argmin(margins / ref)) + 1
    return NewtonReport(margins, holds, worst_j)
