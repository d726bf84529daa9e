"""In-process execution of workload items: the library loop and the traced runs.

Run as ``python worker.py <work-dir>``: it reads ``job.json`` from the work
directory, runs the items in closed-loop passes for the given number of
seconds and writes ``worker-result.json``.  With ``"trace": true`` it
alternates untraced and traced passes, and CLI items call
``mnewton.cli.main(argv)`` in this process so their spans are recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracles


def run_passes(run_one, seconds: float, min_passes: int = 1) -> list:
    """Closed loop: ``run_one(i)`` back to back while another pass fits in ``seconds``."""
    results, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        times.append(time.perf_counter() - t0)
        if (len(results) >= min_passes
                and time.perf_counter() - start + statistics.median(times) > seconds):
            return results


def digest(work: Path, item: dict) -> str:
    """Hash of the files a CLI item wrote, to check that repeated passes agree."""
    h = hashlib.sha256()
    for name in [item["out"]] + ([item["expect"]["csv"]] if "csv" in item["expect"] else []):
        path = work / name
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def matrix_item(mn, item: dict) -> dict:
    """generate -> classify -> normalized_coeffs -> newton_check (-> dual identity)."""
    mclass, charcoeff = mn.mclass, mn.charcoeff
    try:
        a = mclass.generate(mclass.GeneratorSpec(item["kind"], item["n"], item["seed"]))
        rep = mclass.classify(a)
        holds = charcoeff.newton_check(charcoeff.normalized_coeffs(a)).holds
        rec = {"m_class": rep.m_class, "is_inverse_m": bool(rep.is_inverse_m),
               "newton": bool(holds)}
        if item["kind"] != "singular-M" and item["n"] <= oracles.DUAL_CHECK_MAX_N:
            try:
                rec["dual"] = bool(mclass.dual_minor_identity_check(a))
            except mn.InputError as exc:
                rec["dual"] = f"raised: {exc}"
        return rec
    except Exception as exc:  # every failure is an item error, counted by the caller
        return {"error": f"{type(exc).__name__}: {exc}"}


def cli_item(mn, item: dict, work: Path) -> int:
    with open(work / item["out"], "w", encoding="utf-8") as out, \
            open(work / (item["out"] + ".err"), "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return mn.cli.main(item["argv"])
        except Exception as exc:  # exits 1 with no report, as the interpreter would
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


def one_pass(execute, items: list[dict], work: Path) -> dict:
    """Run every item once; the pass time is the sum of the item times."""
    item_s, records = [], []
    for item in items:
        t = time.perf_counter()
        rec = execute(item)
        item_s.append(time.perf_counter() - t)
        if item["op"] == "cli":
            rec["digest"] = digest(work, item)
        records.append(rec)
    return {"pass_s": sum(item_s), "item_s": item_s, "records": records}


def in_process(mn, work: Path):
    """Executor for items run inside this process."""
    def execute(item: dict) -> dict:
        if item["op"] == "matrix":
            return matrix_item(mn, item)
        return {"code": cli_item(mn, item, work)}
    return execute


def attribute(mn, items: list[dict], records: list[dict]) -> None:
    """Add det, the smallest real part of the spectrum and the eigenvalue-route
    Newton verdict to each matrix record (untimed)."""
    for item, rec in zip(items, records):
        if item["op"] != "matrix" or "error" in rec:
            continue
        a = mn.mclass.generate(mn.mclass.GeneratorSpec(item["kind"], item["n"], item["seed"]))
        rec["det"] = float(np.linalg.det(a))
        rec["min_eig_re"] = float(np.min(np.linalg.eigvals(a).real))
        rec["eig_newton"] = oracles.eigen_route_newton(a)


def main(work: Path) -> None:
    job = json.loads((work / "job.json").read_text(encoding="utf-8"))
    os.chdir(work)
    sys.path.insert(0, job["src"])
    import mnewton
    import mnewton.cli  # noqa: F401  (cli is not imported by the package itself)
    items = job["items"]
    execute = in_process(mnewton, work)
    result: dict = {}

    if not job["trace"]:
        passes = run_passes(lambda i: one_pass(execute, items, work), job["seconds"])
    else:
        from tracing import Tracer
        tracer = Tracer()

        def alternate(i: int) -> dict:
            if i % 2 == 0:
                return one_pass(execute, items, work)
            tracer.clear_spans()         # keep only the latest traced pass in memory
            tracer.install()
            mark = tracer.mark()
            try:
                res = one_pass(execute, items, work)
            finally:
                tracer.uninstall()
            res["layers"] = tracer.summary_since(mark)
            return res

        passes = run_passes(alternate, job["seconds"], min_passes=2)
        seen, errs = set(), []
        for a, coeffs in tracer.coeff_inputs:
            key = a.tobytes()
            if key not in seen:
                seen.add(key)
                errs.append(oracles.coeff_rel_err(a, coeffs))
        result["coeff_max_rel_err"] = max(errs, default=0.0)
        result["min_eig_err"] = max(
            (abs(float(lam) - float(min(theta))) / float(max(abs(t) for t in theta))
             for n, m, kind, lam in tracer.min_eig_errs
             for theta in [oracles.form_eigenvalues(n, m, kind)]), default=0.0)
        tracer.write_spans(work / "spans.csv")

    attribute(mnewton, items, passes[-1]["records"])
    result["passes"] = passes
    (work / "worker-result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
