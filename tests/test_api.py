import argparse
import ast
import importlib
import re
from pathlib import Path

import mnewton
from mnewton.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(mnewton.__file__).resolve().parent


def test_all_resolves_and_matches_package_imports():
    names = [name for group in mnewton._EXPORTS.values() for name in group.split()]
    assert len(set(names)) == len(names)
    assert mnewton.__all__ == sorted(names)
    for mod, group in mnewton._EXPORTS.items():
        module = importlib.import_module(f"mnewton.{mod}")
        for name in group.split():
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, name      # defined there, not re-imported
            assert getattr(mnewton, name) is obj, name


def test_dir_lists_every_export_and_submodule():
    listed = dir(mnewton)
    assert listed == sorted(set(listed))
    assert {*mnewton.__all__, *mnewton._SUBMODULES, "__version__"} <= set(listed)


def test_every_public_name_is_exported_or_used_in_src():
    # a public module-level function or class that nothing exports or uses is
    # dead code; a use is a name in the code, not in a docstring
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert [name for name in defined
            if name.split(".")[1] not in {*mnewton.__all__, *used}] == []


def test_package_names_are_read_from_their_module_on_each_access(monkeypatch):
    # nothing is cached in the package, so a wrapper installed on the module
    # (as the bench tracer does) is seen, and its removal is seen too
    linalg = importlib.import_module("mnewton.linalg")
    original, wrapper = linalg.principal_minors_all, object()
    monkeypatch.setattr(linalg, "principal_minors_all", wrapper)
    assert mnewton.principal_minors_all is wrapper
    monkeypatch.undo()
    assert mnewton.principal_minors_all is original


def test_readme_library_sketch_gives_the_values_its_comments_state():
    text = README.read_text(encoding="utf-8")
    sketch = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = sketch.splitlines()
    namespace: dict = {}
    stated = []
    for node in ast.parse(sketch).body:
        if isinstance(node, ast.Expr):
            # a bare expression states its value in the trailing comment
            want = ast.literal_eval(lines[node.end_lineno - 1].split("#", 1)[1].strip())
            got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert got == want, ast.get_source_segment(sketch, node)
            stated.append(want)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert stated == [(True, 0.0), False, -60.0]


def test_readme_command_line_flags_are_parser_options():
    # a flag the docs name but no subcommand accepts is a stale doc
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {opt for parser in sub.choices.values() for opt in parser._option_string_actions}
    assert "--format" in flags and "--export-csv" in flags
    assert sorted(flags - options) == []
