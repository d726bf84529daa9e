"""numpy loads only for commands that do dense numerics, the numpy-free
commands load no ``dataclasses`` (nor the ``inspect`` it imports), and every
lazy package name resolves to its module's object in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT_MODULES = """
import sys
import mnewton, mnewton.cli
{call}
print(*sorted({{"numpy", "dataclasses", "inspect", "mnewton.forms"}} & set(sys.modules)),
      file=sys.stderr)
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


def _loaded(call: str, cwd: Path) -> set[str]:
    """Which of numpy, dataclasses, inspect and mnewton.forms ``call`` leaves loaded."""
    return set(_python(REPORT_MODULES.format(call=call), cwd).splitlines()[-1].split())


def test_exact_commands_and_exports_run_without_numpy(tmp_path):
    assert _loaded("", tmp_path) == set()
    for argv in (["forms", "--n", "14", "--m", "7"], ["identity", "--n", "400", "--m", "200"],
                 ["forms", "--n", "12", "--m", "6", "--kind", "tilde_psi",
                  "--export-csv", "f.csv", "--export-json", "f.json"]):
        assert _loaded(f"mnewton.cli.main({argv!r})", tmp_path) == {"mnewton.forms"}, argv
    assert (tmp_path / "f.csv").stat().st_size > 0 and (tmp_path / "f.json").stat().st_size > 0
    # a command that does dense numerics still loads numpy, and builds no form
    loaded = _loaded("mnewton.cli.main(['coeffs', '--spectrum', 'missing.json'])", tmp_path)
    assert "numpy" in loaded and "mnewton.forms" not in loaded
    _python(RESOLVE_LAZILY, tmp_path)
