import ast
import re
from pathlib import Path

import qhckit


def test_star_import_matches_all():
    # A name left in __all__ after its definition is deleted fails the import.
    exec("from qhckit import *", {})
    assert len(qhckit.__all__) == len(set(qhckit.__all__))


def library_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs_and_imports_all(capsys):
    code = library_example()
    exec(code, {})
    assert capsys.readouterr().out
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "qhckit"
        for alias in node.names
    ]
    assert sorted(imported) == sorted(qhckit.__all__)
