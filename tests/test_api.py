import ast
from pathlib import Path

import mnewton

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_resolves_and_matches_package_imports():
    tree = ast.parse(Path(mnewton.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(set(mnewton.__all__)) == len(mnewton.__all__)
    assert set(mnewton.__all__) == {name for name in imported if not name.startswith("_")}
    for name in mnewton.__all__:
        assert hasattr(mnewton, name), name


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
