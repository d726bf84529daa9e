import ast
from pathlib import Path

import mnewton


def test_all_resolves_and_matches_package_imports():
    tree = ast.parse(Path(mnewton.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(set(mnewton.__all__)) == len(mnewton.__all__)
    assert set(mnewton.__all__) == {name for name in imported if not name.startswith("_")}
    for name in mnewton.__all__:
        assert hasattr(mnewton, name), name
