"""The public surface is called: no public function or class that nothing uses."""

import ast
import re
from pathlib import Path

import sparsecode

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(sparsecode.__file__).parent


def test_every_public_name_is_named_beyond_its_definition():
    """Every module-level function and class of the library whose name does
    not start with `_` is named, outside its own def or class line, in a
    library module other than __init__.py, in the README, in the acceptance
    criteria or in the benchmark."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    readers = [*modules, ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "bench").glob("*.py"))]
    lines = [(path, number, line) for path in readers
             for number, line in enumerate(path.read_text().splitlines(), 1)]
    unnamed = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                word = re.compile(rf"\b{node.name}\b")
                if not any(word.search(line) for where, number, line in lines
                           if (where, number) != (path, node.lineno)):
                    unnamed.append(f"{path.name}:{node.name}")
    assert unnamed == []
