"""Tests of the benchmark itself: inputs, oracles, tracing and the result contract.

    python -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import inputs
import manifest
import oracles

ROOT = Path(__file__).resolve().parents[2]


def _tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    inputs.generate(workload, 11, tmp_path / "a")
    inputs.generate(workload, 11, tmp_path / "b")
    inputs.generate(workload, 12, tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    if workload != "form-spectra":       # its items are fixed (n, m, kind) points
        assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


@pytest.mark.parametrize("workload,count", [("matrix-sweep", 368), ("pair-profiles", 4),
                                            ("form-spectra", 5), ("niep-batch", 3000)])
def test_verdict_counts(workload, count, tmp_path):
    assert inputs.verdict_count(inputs.generate(workload, 1, tmp_path)) == count


@pytest.mark.parametrize("kind", ["phi", "tilde_phi", "tilde_psi", "psi"])
@pytest.mark.parametrize("n,m", [(5, 2), (7, 3), (8, 3), (9, 4)])
def test_eberlein_eigenvalues_match_dense_spectrum(kind, n, m):
    theta = oracles.form_eigenvalues(n, m, kind)
    expanded = sorted(float(t) for i, t in enumerate(theta)
                      for _ in range(math.comb(n, i) - (math.comb(n, i - 1) if i else 0)))
    dense = np.linalg.eigvalsh(oracles.form_entries(n, m, kind))
    scale = max(1.0, max(abs(float(t)) for t in theta))
    np.testing.assert_allclose(dense, expanded, atol=1e-9 * scale)


def test_tilde_phi_13_5_minimum_eigenvalue_is_exact():
    assert min(oracles.form_eigenvalues(13, 5, "tilde_phi")) == -330
    assert min(oracles.form_eigenvalues(14, 7, "psi")) == 0


def _det(rows):
    rows = [list(r) for r in rows]
    n, det = len(rows), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv], det = rows[piv], rows[k], -det
        det *= rows[k][k]
        for r in range(k + 1, n):
            f = rows[r][k] / rows[k][k]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    return det


def test_exact_minor_sums_match_enumeration():
    a = np.random.default_rng(0).uniform(-1, 1, (5, 5))
    fr = [[Fraction(float(x)) for x in row] for row in a]
    want = [sum((_det([[fr[i][j] for j in s] for i in s]) if s else Fraction(1))
                for s in combinations(range(5), k)) for k in range(6)]
    assert oracles.exact_minor_sums(a) == want


def test_eigen_route_newton_on_m_matrix():
    a = inputs.m_matrix(np.random.default_rng(3), 12)
    assert oracles.eigen_route_newton(a)


def test_tracer_wraps_and_restores():
    import mnewton
    from mnewton import forms, linalg
    from tracing import Tracer
    original = linalg.principal_minors_all
    tracer = Tracer()
    tracer.install()
    try:
        assert forms.principal_minors_all is linalg.principal_minors_all is not original
        mark = tracer.mark()
        mnewton.principal_minors_all(np.eye(6) * 2.0, 3)
        summary = tracer.summary_since(mark)
    finally:
        tracer.uninstall()
    assert linalg.principal_minors_all is original and forms.principal_minors_all is original
    assert summary["linalg.principal_minors_all.calls"] == 1
    assert summary["linalg.principal_minors_all.minors"] == math.comb(6, 3)
    assert summary["linalg.principal_minors_all.s"] > 0


def test_benchmark_json_matches_manifest():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest.build()


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    defs = manifest.PER_LAYER if trace else manifest.END_TO_END
    assert {name: unit for name, unit, *_ in defs} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) and math.isfinite(m["value"])
               for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "niep-batch", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
