"""Every ``os.fork`` in ``src/repro``, pinned by where it stands.

The paper's advice is to spawn, and fork only where fork is the point:
the measured baselines, the guarded and handler-wrapped forks the
library offers, and a template helper parking its children.  Each call
site is named here by the function that holds it, so a fork creeping
back into a launch path fails this test instead of passing review.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: (module, enclosing function) of every permitted fork.
ALLOWED = {
    ("core/strategies.py", "ForkExecStrategy.launch"),
    ("core/helper.py", "Helper.park_child"),
    ("core/safety.py", "guarded_fork"),
    ("core/atfork.py", "fork_with_handlers"),
    ("bench/workloads.py", "_fork_exec_once"),
    ("bench/workloads.py", "_fork_only_once"),
}


def fork_sites(tree: ast.AST, scope: str = ""):
    """``scope`` of each reference to ``os.fork`` (or ``fork`` imported
    from ``os``) under ``tree``: the dotted class and function names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from fork_sites(
                node, f"{scope}.{node.name}" if scope else node.name)
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            yield scope
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name == "fork" for alias in node.names):
            yield scope
        yield from fork_sites(node, scope)


def test_every_fork_stands_where_it_is_allowed():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for scope in fork_sites(ast.parse(path.read_text(encoding="utf-8"))):
            found.add((module, scope))
    assert found == ALLOWED


def test_the_walk_sees_a_fork_in_a_method():
    tree = ast.parse("import os\nclass A:\n    def f(self):\n"
                     "        return os.fork()\nfrom os import fork\n")
    assert list(fork_sites(tree)) == ["A.f", ""]
