"""numpy loads only for commands that do dense numerics, and every lazy
package name resolves to its module's object in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT_NUMPY = """
import sys
import mnewton, mnewton.cli
{call}
print("numpy" in sys.modules, file=sys.stderr)
"""

RESOLVE_LAZILY = """
import importlib
import mnewton
for name in mnewton.__all__:
    lazy = getattr(mnewton, name)
    assert lazy is getattr(importlib.import_module("mnewton." + mnewton._MODULE_OF[name]), name), name
for sub in mnewton._SUBMODULES:
    assert getattr(mnewton, sub) is importlib.import_module("mnewton." + sub), sub
assert set(mnewton.__all__) | set(mnewton._SUBMODULES) <= set(dir(mnewton))
assert not hasattr(mnewton, "no_such_name")
"""


def _python(code: str, cwd: Path) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def _numpy_loaded(call: str, cwd: Path) -> bool:
    return _python(REPORT_NUMPY.format(call=call), cwd).strip().splitlines()[-1] == "True"


def test_exact_commands_and_exports_run_without_numpy(tmp_path):
    assert not _numpy_loaded("", tmp_path)
    for argv in (["forms", "--n", "14", "--m", "7"], ["identity", "--n", "400", "--m", "200"],
                 ["forms", "--n", "12", "--m", "6", "--kind", "tilde_psi",
                  "--export-csv", "f.csv", "--export-json", "f.json"]):
        assert not _numpy_loaded(f"mnewton.cli.main({argv!r})", tmp_path), argv
    assert (tmp_path / "f.csv").stat().st_size > 0 and (tmp_path / "f.json").stat().st_size > 0
    # a command that does dense numerics still loads it
    assert _numpy_loaded("mnewton.cli.main(['coeffs', '--spectrum', 'missing.json'])", tmp_path)
    _python(RESOLVE_LAZILY, tmp_path)
