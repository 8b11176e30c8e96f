"""Every module-level import under ``src/repro`` is used.

The repository runs no linter, so unused imports accumulate unseen.
This guard needs only the stdlib ``ast`` module: a name bound by a
module-level ``import`` or ``from ... import`` counts as used when it
appears anywhere in the module as a ``Name`` node, which covers
attribute roots (``np`` in ``np.zeros``) and annotations.  Package
``__init__.py`` files re-export by design and are skipped; a deliberate
re-export elsewhere carries ``# noqa`` on its import line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def unused_imports(path):
    """Names ``path`` imports at module level and never references."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for statement in tree.body:
        if isinstance(statement, ast.Import):
            bound = [(a.asname or a.name.split(".")[0], a) for a in statement.names]
        elif isinstance(statement, ast.ImportFrom) and statement.module != "__future__":
            bound = [(a.asname or a.name, a) for a in statement.names]
        else:
            continue
        for name, alias in bound:
            marked = any(
                "# noqa" in lines[lineno - 1] for lineno in (statement.lineno, alias.lineno)
            )
            if name not in used and not marked:
                unused.append(name)
    return sorted(unused)


def test_scanner_flags_only_unused_names(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy as np\n"
        "from typing import (\n"
        "    Dict,\n"
        "    List,\n"
        "    Tuple,  # noqa: F401\n"
        ")\n"
        "from .x import kept  # noqa: F401\n"
        "def f(x: Dict) -> int:\n"
        "    import json\n"
        "    return np.size(x)\n"
    )
    assert unused_imports(module) == ["List", "os", "osp"]


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    unused = {}
    for path in modules:
        names = unused_imports(path)
        if names:
            unused[str(path.relative_to(SRC))] = names
    assert not unused, f"unused imports: {unused}"
