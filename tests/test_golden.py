"""Golden files: every subcommand's stdout, stderr, exit code and export files, byte for byte.

Each case runs ``cli.main(argv)`` in a scratch directory holding a copy of
``golden/inputs``, so every path the CLI sees or prints is relative.  The
expected bytes live in ``golden/expected/<case>/``: ``stdout``, ``stderr``,
``exit_code`` and one file per ``--export-csv``/``--export-json`` target.

The files pin the report contract, including the field order that
``--format text`` follows.  Rewrite them only for an intended report
change, with ``python tests/test_golden.py`` (it needs ``src`` on
``PYTHONPATH``; it prints each file whose bytes it changed), and say
which fields changed and why.
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from mnewton import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "classify-m5": ["classify", "--input", "inputs/m5.json"],
    "classify-m5-text": ["classify", "--input", "inputs/m5.json", "--format", "text"],
    "classify-signed4": ["classify", "--input", "inputs/signed4.json"],
    "classify-signed4-text": ["classify", "--input", "inputs/signed4.json", "--format", "text"],
    "classify-singular-m2": ["classify", "--input", "inputs/singular_m2.json"],
    "classify-invm4": ["classify", "--input", "inputs/invm4.json"],
    "classify-malformed": ["classify", "--input", "inputs/malformed.json"],
    "classify-bad-rows": ["classify", "--input", "inputs/bad_rows.json"],
    "classify-string-entry": ["classify", "--input", "inputs/string_entry.json"],
    "classify-missing-file": ["classify", "--input", "inputs/missing.json"],
    "classify-binary": ["classify", "--input", "inputs/binary.json"],
    "coeffs-diag3": ["coeffs", "--input", "inputs/diag3.json"],
    "coeffs-diag3-text": ["coeffs", "--input", "inputs/diag3.json", "--format", "text"],
    "coeffs-spectrum": ["coeffs", "--spectrum", "inputs/spectra/c_complex.json"],
    "coeffs-both-sources": ["coeffs", "--input", "inputs/diag3.json",
                            "--spectrum", "inputs/spec_real4.json"],
    "coeffs-no-source": ["coeffs"],
    "newton-m5": ["newton", "--input", "inputs/m5.json"],
    "newton-m5-text": ["newton", "--input", "inputs/m5.json", "--format", "text"],
    "newton-invm4": ["newton", "--input", "inputs/invm4.json"],
    "newton-spectrum-real": ["newton", "--spectrum", "inputs/spec_real4.json"],
    "newton-spectrum-fail": ["newton", "--spectrum", "inputs/spec_fail3.json"],
    "newton-spectrum-fail-text": ["newton", "--spectrum", "inputs/spec_fail3.json",
                                  "--format", "text"],
    "newton-spectrum-one": ["newton", "--spectrum", "inputs/spec_one.json"],
    "newton-spectrum-overflow": ["newton", "--spectrum", "inputs/spec_overflow3.json"],
    "newton-bad-tol": ["newton", "--input", "inputs/m5.json", "--tol", "-1"],
    "newton-tol-inf": ["newton", "--input", "inputs/m5.json", "--tol", "inf"],
    "sfunc-m5": ["sfunc", "--input", "inputs/m5.json"],
    "sfunc-invm4": ["sfunc", "--input", "inputs/invm4.json"],
    "sfunc-m5-m2-k1": ["sfunc", "--input", "inputs/m5.json", "--m", "2", "--k", "1"],
    "sfunc-m5-m2-text": ["sfunc", "--input", "inputs/m5.json", "--m", "2", "--format", "text"],
    "sfunc-signed4": ["sfunc", "--input", "inputs/signed4.json"],
    "sfunc-violator2": ["sfunc", "--input", "inputs/violator2.json"],
    "sfunc-infeasible": ["sfunc", "--input", "inputs/m5.json", "--m", "4", "--k", "0"],
    "sfunc-k-without-m": ["sfunc", "--input", "inputs/m5.json", "--k", "1"],
    "sfunc-tol-nan": ["sfunc", "--input", "inputs/m5.json", "--m", "3", "--k", "1",
                      "--tol", "nan"],
    "forms-psi-5-2-exports": ["forms", "--n", "5", "--m", "2",
                              "--export-csv", "psi.csv", "--export-json", "psi.json"],
    "forms-tilde-phi-6-3": ["forms", "--n", "6", "--m", "3", "--kind", "tilde_phi",
                            "--export-csv", "tilde_phi.csv"],
    "forms-tilde-psi-6-2": ["forms", "--n", "6", "--m", "2", "--kind", "tilde_psi",
                            "--export-json", "tilde_psi.json"],
    "forms-phi-7-3": ["forms", "--n", "7", "--m", "3", "--kind", "phi"],
    "forms-psi-6-2-text": ["forms", "--n", "6", "--m", "2", "--format", "text"],
    "forms-m-out-of-range": ["forms", "--n", "5", "--m", "5"],
    "forms-psi-16-8": ["forms", "--n", "16", "--m", "8"],
    "forms-psi-240-120": ["forms", "--n", "240", "--m", "120"],
    "identity-12-5": ["identity", "--n", "12", "--m", "5"],
    "identity-7-3-text": ["identity", "--n", "7", "--m", "3", "--format", "text"],
    "identity-m-zero": ["identity", "--n", "5", "--m", "0"],
    "niep-screen-pass": ["niep-screen", "--spectrum", "inputs/spectra/b_pass.json"],
    "niep-screen-fail": ["niep-screen", "--spectrum", "inputs/spectra/a_laffey_meehan.json"],
    "niep-screen-complex-text": ["niep-screen", "--spectrum", "inputs/spectra/c_complex.json",
                                 "--format", "text"],
    "niep-screen-dir": ["niep-screen", "--spectrum", "inputs/spectra"],
    "niep-screen-dir-text": ["niep-screen", "--spectrum", "inputs/spectra", "--format", "text"],
    "niep-screen-dir-params": ["niep-screen", "--spectrum", "inputs/spectra",
                               "--jll-bound", "6", "--moment-k", "4", "--tol", "1e-6"],
    "niep-screen-dir-moment-k-above-bound": ["niep-screen", "--spectrum", "inputs/spectra",
                                             "--moment-k", "40", "--jll-bound", "3"],
    "niep-screen-no-spectra": ["niep-screen", "--spectrum", "inputs/nojson"],
    "niep-screen-bad-jll-bound": ["niep-screen", "--spectrum", "inputs/spectra/b_pass.json",
                                  "--jll-bound", "1"],
    "niep-screen-huge-int": ["niep-screen", "--spectrum", "inputs/huge_int.json"],
    "niep-screen-bad-moment-k": ["niep-screen", "--spectrum", "inputs/spectra/b_pass.json",
                                 "--moment-k", "0"],
    "gen-m-4-3": ["gen", "--kind", "M", "--n", "4", "--seed", "3"],
    "gen-spec-file": ["gen", "--input", "inputs/gen_invm.json"],
    "gen-singular-m": ["gen", "--kind", "singular-M", "--n", "3", "--seed", "5"],
    "gen-similarity-text": ["gen", "--kind", "similarity-conjugated-M", "--n", "3",
                            "--seed", "2", "--format", "text"],
    "gen-missing-seed": ["gen", "--kind", "M", "--n", "4"],
    "gen-margin-inf": ["gen", "--kind", "M", "--n", "3", "--seed", "1", "--margin", "inf"],
    "gen-bad-kind": ["gen", "--input", "inputs/gen_badkind.json"],
    "gen-negative-seed": ["gen", "--kind", "M", "--n", "3", "--seed", "-5"],
}


def _exports(argv):
    return [argv[i + 1] for i, a in enumerate(argv)
            if a in ("--export-csv", "--export-json")]


def run_case(argv, workdir: Path) -> dict[str, bytes]:
    """Run one CLI call in ``workdir``; return its output files by golden name."""
    shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        files = {name: Path(name).read_bytes() for name in _exports(argv)}
    finally:
        os.chdir(cwd)
    files.update(stdout=out.getvalue().encode("utf-8"),
                 stderr=err.getvalue().encode("utf-8"),
                 exit_code=f"{code}\n".encode("ascii"))
    return files


def test_cases_cover_every_subcommand_and_exit_code():
    assert {argv[0] for argv in CASES.values()} == set(cli._HANDLERS)
    # regenerating never deletes a case directory, so a stale one must fail here
    assert {p.name for p in (GOLDEN / "expected").iterdir()} == set(CASES)
    codes = {name: (GOLDEN / "expected" / name / "exit_code").read_text().strip()
             for name in CASES}
    assert set(codes.values()) == {"0", "1", "2"}
    # a report golden in JSON (which the writer refuses unless every value is
    # plain) and one in text, for every handler
    formats = {(argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "json")
               for name, argv in CASES.items() if codes[name] != "2"}
    assert formats == {(cmd, fmt) for cmd in cli._HANDLERS for fmt in ("json", "text")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    want_dir = GOLDEN / "expected" / name
    want = {p.name: p.read_bytes() for p in want_dir.iterdir()}
    got = run_case(CASES[name], tmp_path)
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        assert got[key] == want[key], f"{name}: {key} differs from the golden file"


if __name__ == "__main__":
    import tempfile

    changed = []
    for case, case_argv in CASES.items():
        target = GOLDEN / "expected" / case
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case_argv, Path(tmp)).items():
                path = target / fname
                if not path.is_file() or path.read_bytes() != data:
                    path.write_bytes(data)
                    changed.append(f"{case}/{fname}")
    print("\n".join(changed) or "no golden file changed")
    print(f"checked {len(CASES)} cases under {GOLDEN / 'expected'}, "
          f"rewrote {len(changed)} files", file=sys.stderr)
