"""Seeded input generation for the four benchmark workloads.

Inputs are a pure function of (workload, seed): the same seed writes
byte-identical files.  They are built with numpy alone, never with the
package under test, so a change to the package cannot change its own
inputs.  Each workload becomes a list of *items*; an item is one job of
the closed loop and carries the answer known by construction.

Item shapes:
  {"op": "matrix", "kind", "n", "seed"}          library pipeline on generate(spec)
  {"op": "cli", "argv": [...], "out": name, "expect": {...}}
  {"op": "cli", ..., "expect": {"check": "niep", "manifest": [...]}}   one call, many verdicts
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("matrix-sweep", "pair-profiles", "form-spectra", "niep-batch")
MATRIX_KINDS = ("M", "inverse-M", "singular-M", "similarity-conjugated-M")

# matrix-sweep: every kind at n = 4..12 with 8 seeds, plus a large tier.
SWEEP_SIZES = tuple(range(4, 13))
SWEEP_SEEDS_PER_SIZE = 8
SWEEP_LARGE_SIZES = (16, 24, 32, 48, 64)
SWEEP_LARGE_SEEDS = 4

PAIR_SIZES = (14, 15)
PAIR_KINDS = ("M", "inverse-M")
DIAGONAL_MARGIN = 0.1

# (kind, n, m, export CSV) of the form-spectra items; identity runs last
FORM_ITEMS = (
    ("psi", 14, 7, False),
    ("psi", 13, 6, False),
    ("tilde_phi", 13, 5, False),
    ("tilde_psi", 12, 6, True),
)
IDENTITY_ITEM = (400, 200)

NIEP_SPECTRA = 3000
NIEP_SIZES = tuple(range(3, 13))
# Real 10-tuple with vanishing first and third moments, and the tangent
# direction along which its perturbations keep the third moment at zero.
TEN_TUPLE = (3.0, 1.0, 1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0)
TEN_DIRECTION = (-1.0, 13.0, -1.0)
FIVE_TUPLE = (3.0, 3.0, -2.0, -2.0, -2.0)


def _rng(workload: str, seed: int) -> np.random.Generator:
    # any integer seed, negative ones included, maps to a distinct entropy word
    return np.random.default_rng([seed & (2**64 - 1), WORKLOADS.index(workload)])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def m_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """s*I - B with B uniform in [0, 1) and s above the largest row sum of B."""
    b = rng.uniform(0.0, 1.0, (n, n))
    return (1.0 + DIAGONAL_MARGIN) * float(np.max(b.sum(axis=1))) * np.eye(n) - b


def _matrix_file(a: np.ndarray) -> dict:
    return {"n": int(a.shape[0]), "rows": [[float(x) for x in row] for row in a]}


def _spectrum_file(values) -> dict:
    vals = np.asarray(values, dtype=complex).ravel()
    return {"values": [[float(v.real), float(v.imag)] for v in vals]}


def perturbed_ten_tuple(eps: float) -> np.ndarray:
    """Ten-tuple with positive trace and zero third moment (fails JLL at k=1, m=3).

    The third entry of the perturbation is corrected by Newton steps so the
    cube sum of the three perturbed entries keeps its base value 20.
    """
    t1, t2, t3 = (eps * d for d in TEN_DIRECTION)
    for _ in range(100):
        f = (3.0 + t1) ** 3 + (1.0 + t2) ** 3 + (-2.0 + t3) ** 3 - 20.0
        if abs(f) <= 1e-13:
            break
        t3 -= f / (3.0 * (-2.0 + t3) ** 2)
    out = np.array(TEN_TUPLE)
    out[[0, 1, 6]] += (t1, t2, t3)
    return out


def _niep_spectrum(rng: np.random.Generator, i: int) -> tuple[str, bool, str | None, np.ndarray]:
    """(family, realizable, condition it must fail, values) for spectrum i."""
    family = ("dense", "dense", "symmetric", "circulant", "perturbed", "five")[i % 6]
    n = NIEP_SIZES[(i // 6) % len(NIEP_SIZES)]
    if family == "dense":
        return family, True, None, np.linalg.eigvals(rng.uniform(0.01, 1.0, (n, n)))
    if family == "symmetric":
        b = rng.uniform(0.0, 1.0, (n, n))
        return family, True, None, np.linalg.eigvalsh(b + b.T)
    if family == "circulant":
        # 0/1 first row with zero diagonal: a traceless nonnegative circulant
        row = (rng.uniform(size=n) < 0.5).astype(float)
        row[0] = 0.0
        if not row.any():
            row[1 + int(rng.integers(n - 1))] = 1.0
        return family, True, None, np.fft.fft(row)
    if family == "perturbed":
        return family, False, "jll", perturbed_ten_tuple(float(rng.uniform(1e-4, 1e-2)))
    return family, False, "laffey_meehan", float(rng.uniform(0.1, 10.0)) * np.array(FIVE_TUPLE)


def generate(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the inputs of ``workload`` under ``work`` and return its items."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    items: list[dict] = []

    if workload == "matrix-sweep":
        tiers = [(SWEEP_SIZES, SWEEP_SEEDS_PER_SIZE), (SWEEP_LARGE_SIZES, SWEEP_LARGE_SEEDS)]
        for sizes, per in tiers:
            for n in sizes:
                for kind in MATRIX_KINDS:
                    for s in rng.integers(0, 2**31, size=per):
                        items.append({"op": "matrix", "kind": kind, "n": n, "seed": int(s)})

    elif workload == "pair-profiles":
        for n in PAIR_SIZES:
            for kind in PAIR_KINDS:
                a = m_matrix(rng, n)
                if kind == "inverse-M":
                    a = np.linalg.inv(a)
                name = f"{kind}-{n}.json"
                _write_json(work / name, _matrix_file(a))
                items.append({"op": "cli", "argv": ["sfunc", "--input", name],
                              "out": f"sfunc-{kind}-{n}.out.json",
                              "expect": {"check": "sfunc", "n": n}})

    elif workload == "form-spectra":
        for kind, n, m, export in FORM_ITEMS:
            argv = ["forms", "--n", str(n), "--m", str(m), "--kind", kind]
            expect = {"check": "forms", "kind": kind, "n": n, "m": m}
            if export:
                expect["csv"] = f"{kind}-{n}-{m}.csv"
                argv += ["--export-csv", expect["csv"]]
            items.append({"op": "cli", "argv": argv, "out": f"forms-{kind}-{n}-{m}.out.json",
                          "expect": expect})
        n, m = IDENTITY_ITEM
        items.append({"op": "cli", "argv": ["identity", "--n", str(n), "--m", str(m)],
                      "out": f"identity-{n}-{m}.out.json", "expect": {"check": "identity"}})

    else:
        spectra = work / "spectra"
        spectra.mkdir(exist_ok=True)
        manifest = []
        for i in range(NIEP_SPECTRA):
            family, realizable, must_fail, values = _niep_spectrum(rng, i)
            name = f"s{i:05d}.json"
            _write_json(spectra / name, _spectrum_file(values))
            manifest.append({"file": name, "family": family, "n": int(np.size(values)),
                             "realizable": realizable, "must_fail": must_fail})
        items.append({"op": "cli", "argv": ["niep-screen", "--spectrum", "spectra"],
                      "out": "niep-screen.out.json",
                      "expect": {"check": "niep", "manifest": manifest}})

    _write_json(work / "items.json", items)
    return items


def verdict_count(items: list[dict]) -> int:
    """Number of verdicts the items carry (a niep-screen call carries one per spectrum)."""
    return sum(len(it["expect"]["manifest"]) if it.get("expect", {}).get("check") == "niep"
               else 1 for it in items)
