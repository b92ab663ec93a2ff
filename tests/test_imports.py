"""Every module-level import in the package is used by its module, and
the package's __all__ names each export once.

An import that nothing reads is dead code that looks load-bearing. This is
the one check of a linter's unused-import rule that the package needs, done
with ast so it runs on a plain numpy + PyYAML install. Names listed in a
module's __all__ count as used: they are what the module re-exports.
"""

import ast
from pathlib import Path

import pytest

import rollsim

SRC = Path(__file__).resolve().parent.parent / "src" / "rollsim"


def unused_imports(source):
    """Names bound by top-level import statements that the module never
    reads, in order of binding."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_unused_imports_finds_what_it_should():
    src = ("from __future__ import annotations\n"
           "import os, os.path\nimport numpy as np\n"
           "from .a import b, c as d, e\n"
           "__all__ = ['e']\n"
           "def f():\n    return np.zeros(1), d\n")
    assert unused_imports(src) == ["os", "os", "b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_package_all_names_each_attribute_once():
    assert len(rollsim.__all__) == len(set(rollsim.__all__))
    assert [n for n in rollsim.__all__ if not hasattr(rollsim, n)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from rollsim import *", namespace)
    assert set(rollsim.__all__) <= set(namespace)
