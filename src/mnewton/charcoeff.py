"""Normalized characteristic-polynomial coefficients and Newton margins."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_matrix, binomials

# pairing tolerance for conjugate closure, relative to max(1, max |value|)
CLOSURE_RTOL = 1e-9


def ensure_conjugate_closed(values) -> np.ndarray:
    """Validate that a spectrum is closed under conjugation, return it complex.

    Non-real values are paired greedily, each with the nearest remaining
    candidate for its conjugate; every non-real value must find a partner
    within ``CLOSURE_RTOL * scale``.  The pairing runs on Python complex
    numbers, whose subtraction and modulus are numpy's bit for bit.
    """
    try:
        vals = np.asarray(values, dtype=complex).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"spectrum values must be numbers: {exc}") from None
    if vals.size == 0:
        raise InputError("spectrum must be nonempty")
    scale = float(np.abs(vals).max())
    # |value| is NaN or inf for every non-finite value, and inf for finite
    # values whose modulus overflows
    if not scale < np.inf and not np.all(np.isfinite(vals)):
        raise InputError("spectrum values must be finite")
    tol = CLOSURE_RTOL * max(1.0, scale)
    nonreal = np.flatnonzero(np.abs(vals.imag) > tol).tolist()
    if not nonreal:
        return vals
    py = vals.tolist()
    unmatched = set(nonreal)
    for i in nonreal:
        if i not in unmatched:
            continue
        unmatched.discard(i)
        target = py[i].conjugate()
        best = None
        best_d = np.inf
        for j in unmatched:
            try:
                d = abs(py[j] - target)
            except OverflowError:   # numpy's modulus is inf there, which never wins
                continue
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
    return _coeffs(ensure_conjugate_closed(values)[None])[0]


def _coeffs(vals: np.ndarray) -> np.ndarray:
    """The recurrence of :func:`coeffs_from_spectrum` on each row of a
    ``(B, n)`` block of validated spectra: root i updates every e_j at once."""
    n = vals.shape[1]
    z = np.zeros((len(vals), n + 1), dtype=complex)
    z[:, 0] = 1.0
    with np.errstate(all="ignore"):     # overflow leaves inf or NaN, unwarned
        for i in range(n):
            z[:, 1:i + 2] += vals[:, i:i + 1] * z[:, :i + 1]
    scale = np.fmax(1.0, np.max(np.abs(z), axis=1))
    resid = np.max(np.abs(z.imag), axis=1)
    if np.any(bad := resid > CLOSURE_RTOL * scale):
        raise InputError("symmetric functions retain imaginary residue "
                         f"{resid[bad][0]:g} beyond tolerance")
    return z.real / binomials(n)


@dataclass(frozen=True)
class NewtonReport:
    """Margins mu_j = c_j^2 - c_{j-1} c_{j+1} for j = 1..n-1."""
    margins: np.ndarray
    holds: bool
    worst_j: int | None    # j minimizing mu_j / max(1, c_j^2); None when n < 2


def newton_check(c, tol: float = 1e-9) -> NewtonReport:
    """Check c_j^2 >= c_{j-1} c_{j+1} for all inner j.

    Each margin is compared against ``-tol * max(c_j^2, |c_{j-1} c_{j+1}|)``,
    the larger of the two terms it subtracts, so the verdict is scale-free.
    A non-finite coefficient or margin (overflow) raises InputError.
    """
    cv = np.asarray(c, dtype=float).ravel()
    if cv.size < 1:
        raise InputError("coefficient vector must be nonempty")
    _require_finite(cv)
    if abs(cv[0] - 1.0) > 1e-9:
        raise InputError(f"coefficient vector must be normalized with c_0 = 1, got {float(cv[0])}")
    with np.errstate(all="ignore"):     # overflow is reported below, not warned
        margins, holds, worst_j = _newton(cv[None], tol)
    if not np.all(np.isfinite(margins)):
        j = int(np.argmin(np.isfinite(margins[0]))) + 1
        raise InputError(f"Newton margin mu_{j} = {float(margins[0, j - 1])} is not finite")
    return NewtonReport(margins[0], bool(holds[0]), worst_j[0])


def _require_finite(c: np.ndarray) -> None:
    """Raise an InputError naming the first coefficient that overflowed to inf or NaN."""
    if not np.all(np.isfinite(c)):
        j = int(np.argmin(np.isfinite(c)))
        raise InputError(f"coefficient c_{j} = {float(c[j])} is not finite")


def _newton(c: np.ndarray, tol: float):
    """Margins, verdicts and worst j (a list) of each row of a ``(B, n+1)``
    block of normalized coefficients; the worst j is None when n < 2."""
    mid = c[:, 1:-1]
    square, outer = mid * mid, c[:, :-2] * c[:, 2:]
    margins = square - outer
    holds = np.all(margins >= -tol * np.maximum(square, np.abs(outer)), axis=1)
    if not mid.shape[1]:
        return margins, holds, [None] * len(c)
    return margins, holds, (np.argmin(margins / np.maximum(1.0, square), axis=1) + 1).tolist()
