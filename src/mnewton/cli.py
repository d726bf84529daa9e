"""Command-line front end for batch verification and report emission.

Exit codes: 0 all requested checks pass, 1 at least one check failed
(margins in the report), 2 input or usage error.  Each handler imports the
modules it needs, so ``forms`` and ``identity`` run without numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import forms, serialize
from .defaults import DEFAULT_JLL_BOUND, DEFAULT_MARGIN, DEFAULT_MOMENT_K, GENERATOR_KINDS
from .errors import InputError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    # gen and identity check nothing against a tolerance, so they take no --tol
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-9, help="check tolerance")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    common = [tol, fmt]

    p = argparse.ArgumentParser(
        prog="mnewton",
        description="Verification of coefficient inequalities for M- and inverse "
                    "M-matrices, subset-overlap quadratic forms, and NIEP screening.")
    sub = p.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", parents=common,
                        help="classify a matrix as Z / P / M / inverse-M")
    cl.add_argument("--input", required=True, help="matrix JSON file")

    co = sub.add_parser("coeffs", parents=common,
                        help="normalized characteristic-polynomial coefficients")
    co.add_argument("--input", help="matrix JSON file")
    co.add_argument("--spectrum", help="spectrum JSON file")

    ne = sub.add_parser("newton", parents=common,
                        help="Newton inequality margins of a matrix or spectrum")
    ne.add_argument("--input", help="matrix JSON file")
    ne.add_argument("--spectrum", help="spectrum JSON file")

    sf = sub.add_parser("sfunc", parents=common,
                        help="pair-sum split inequalities (ratio and pointwise)")
    sf.add_argument("--input", required=True, help="matrix JSON file")
    sf.add_argument("--m", type=int, help="split size m (all feasible when omitted)")
    sf.add_argument("--k", type=int, help="overlap k (all feasible when omitted)")

    fo = sub.add_parser("forms", parents=common,
                        help="build a subset-overlap form, check PSD and structure")
    fo.add_argument("--n", type=int, required=True)
    fo.add_argument("--m", type=int, required=True)
    fo.add_argument("--kind", choices=forms.FORM_KINDS, default="psi")
    fo.add_argument("--export-csv", help="write the form entries as dense CSV")
    fo.add_argument("--export-json", help="write the form as JSON")

    idp = sub.add_parser("identity", parents=[fmt],
                         help="exact rational overlap-weight identity sum")
    idp.add_argument("--n", type=int, required=True)
    idp.add_argument("--m", type=int, required=True)

    ns = sub.add_parser("niep-screen", parents=common,
                        help="necessary-condition screening of candidate spectra")
    ns.add_argument("--spectrum", required=True,
                    help="spectrum JSON file, or a directory of them")
    ns.add_argument("--jll-bound", type=int, default=DEFAULT_JLL_BOUND)
    ns.add_argument("--moment-k", type=int, default=DEFAULT_MOMENT_K)

    ge = sub.add_parser("gen", parents=[fmt],
                        help="emit a seeded matrix of a requested class as JSON")
    ge.add_argument("--input", help="generator-spec JSON file")
    ge.add_argument("--kind", choices=GENERATOR_KINDS)
    ge.add_argument("--n", type=int)
    ge.add_argument("--seed", type=int)
    ge.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    return p


def _load_matrix(path: str):
    return serialize.matrix_from_dict(serialize.load_json(path))


def _load_spectrum(path: str):
    return serialize.spectrum_from_dict(serialize.load_json(path))


def _cmd_classify(args):
    from . import mclass
    a = _load_matrix(args.input)
    rep = mclass.classify(a, tol=args.tol)
    return True, {
        "command": "classify",
        "n": int(a.shape[0]),
        "tol": args.tol,
        **vars(rep),
    }


def _coeffs_from_args(args):
    from . import charcoeff
    if (args.input is None) == (args.spectrum is None):
        raise InputError("provide exactly one of --input or --spectrum")
    c = (charcoeff.normalized_coeffs(_load_matrix(args.input)) if args.input is not None
         else charcoeff.coeffs_from_spectrum(_load_spectrum(args.spectrum)))
    charcoeff._require_finite(c)    # inf has no JSON spelling and gives no verdict
    return c


def _cmd_coeffs(args):
    c = _coeffs_from_args(args)
    return True, {"command": "coeffs", "n": int(c.size - 1), "coeffs": c.tolist()}


def _cmd_newton(args):
    from . import charcoeff
    c = _coeffs_from_args(args)
    rep = charcoeff.newton_check(c, tol=args.tol)
    return rep.holds, {
        "command": "newton",
        "n": int(c.size - 1),
        "tol": args.tol,
        "coeffs": c.tolist(),
        **vars(rep), "margins": rep.margins.tolist(),
    }


def _cmd_sfunc(args):
    from . import pairsums
    a = _load_matrix(args.input)
    sums = pairsums.MinorPairSums(a)
    n = sums.n
    if args.k is not None and args.m is None:
        raise InputError("flag --k requires --m")
    params = ([(args.m, args.k)] if args.k is not None
              else [(m, k) for m, k in pairsums.feasible_ratio_params(n)
                    if args.m in (None, m)])
    if not params:
        raise InputError(f"no feasible (m, k) parameters for n = {n}")
    checks = []
    worst = None
    for m, k in params:
        ratio = pairsums.ratio_check(sums, m, k, args.tol)
        point = pairsums.pointwise_check(sums, m, k, args.tol)
        checks.append({
            "m": m, "k": k,
            "ratio_margin": ratio.margin, "ratio_holds": ratio.holds,
            "pointwise_margin": point.margin, "pointwise_holds": point.holds,
        })
        key = ratio.margin / ratio.scale if ratio.scale else 0.0
        if worst is None or key < worst[0]:
            worst = (key, m, k)
    holds = all(c["ratio_holds"] and c["pointwise_holds"] for c in checks)
    return holds, {
        "command": "sfunc",
        "n": n,
        "tol": args.tol,
        "checks": checks,
        "holds": holds,
        "worst": {"m": worst[1], "k": worst[2]},
    }


def _cmd_forms(args):
    form = forms.build_form(args.n, args.m, args.kind)
    is_psd, min_eig = forms.psd_check(form, tol=max(args.tol, 1e-12))
    structure = forms.structure_checks(args.n, args.m, tol=max(args.tol, 1e-12))
    # both exports pass the cap check before a target is opened: one over the cap
    # writes no file
    exported = args.export_json and serialize.form_to_dict(form)
    target = args.export_csv
    try:
        if target:
            serialize.form_to_csv(form, target)
        if exported:
            target = args.export_json
            with open(target, "w", encoding="utf-8") as fh:
                serialize.write_report(exported, fh, end="")
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc}") from None
    ok = is_psd and structure.ok
    return ok, {
        "command": "forms",
        "n": args.n, "m": args.m, "kind": args.kind,
        "dim": form.dim,
        "is_psd": is_psd,
        "min_eigenvalue": min_eig,
        "structure": vars(structure),
    }


def _cmd_identity(args):
    total = forms.binomial_identity_sum(args.n, args.m)
    ok = total == 0
    return ok, {"command": "identity", "n": args.n, "m": args.m,
                "sum": str(total), "is_zero": ok}


def _report_dict(rep, **tag) -> dict:
    """A screening report with its fields splatted one level deep."""
    return {**vars(rep), "conditions": {k: vars(c) for k, c in rep.conditions.items()},
            **tag}


def _cmd_niep_screen(args):
    from . import niep
    path = Path(args.spectrum)
    if not path.is_dir():
        rep, = niep.screen_many([_load_spectrum(str(path))], moment_k=args.moment_k,
                                jll_bound=args.jll_bound, tol=args.tol)
        return rep.all_pass, _report_dict(rep, command="niep-screen")
    # the names whose Path.suffix is ".json"
    names = sorted(e.name for e in os.scandir(path)
                   if e.name.endswith(".json") and len(e.name) > 5)
    if not names:
        raise InputError(f"no .json spectra found in {path}")
    # files load lazily, so the first bad file in sorted order is the one reported
    reps = niep.screen_many((_load_spectrum(str(path / name)) for name in names),
                            moment_k=args.moment_k, jll_bound=args.jll_bound, tol=args.tol)
    reports = [_report_dict(r, file=name) for r, name in zip(reps, names)]
    ok = all(r.all_pass for r in reps)
    return ok, {"command": "niep-screen", "reports": reports, "all_pass": ok}


def _cmd_gen(args):
    from . import mclass
    if args.input is not None:
        spec = serialize.generator_spec_from_dict(serialize.load_json(args.input))
    else:
        if args.kind is None or args.n is None or args.seed is None:
            raise InputError("gen requires --input or all of --kind/--n/--seed")
        spec = mclass.GeneratorSpec(kind=args.kind, n=args.n, seed=args.seed,
                                    margin=args.margin)
    return True, serialize.matrix_to_dict(mclass.generate(spec))


_HANDLERS = {
    "classify": _cmd_classify,
    "coeffs": _cmd_coeffs,
    "newton": _cmd_newton,
    "sfunc": _cmd_sfunc,
    "forms": _cmd_forms,
    "identity": _cmd_identity,
    "niep-screen": _cmd_niep_screen,
    "gen": _cmd_gen,
}


def _render_text(value, write, pad: str = "") -> None:
    """Write the ``--format text`` lines of a plain report one at a time: dict
    items in field order as ``key: value``, list and tuple items as ``- value``."""
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, (dict, list, tuple)):
                write(f"{pad}{key}:\n")
                _render_text(val, write, pad + "  ")
            else:
                write(f"{pad}{key}: {val}\n")
    else:
        for val in value:
            if isinstance(val, (dict, list, tuple)):
                write(f"{pad}-\n")
                _render_text(val, write, pad + "  ")
            else:
                write(f"{pad}- {val}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "tol") and not 0 < args.tol < math.inf:
        print("error: field 'tol' must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    try:
        ok, report = _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        serialize.write_report(report, sys.stdout)
    else:
        _render_text(report, sys.stdout.write)
    return EXIT_OK if ok else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
