"""One launch op per wire, and the documents that say so.

The helper and the gateway each speak exactly one launch op, ``spawn``,
for one child or N; nothing below the public API chooses between a
single and a batch by flag.  The op tables in ``docs/FORKSERVER.md``
and ``docs/GATEWAY.md`` are parsed here and must name exactly the ops
the code serves — a table that drifts from the code fails on every CI
row, not in review.
"""

import ast
import inspect
import pathlib
import pkgutil
import re

import repro.core
from repro.core import helper
from repro.core.strategies import get_strategy, strategies
from repro.gateway import protocol, server

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def helper_ops() -> set:
    """The keys of ``Helper.ops``, read from its source: the helper is
    a program, not a class to boot for a test."""
    tree = ast.parse(inspect.getsource(helper.Helper))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "self.ops"):
            return {key.value for key in node.value.keys}
    raise AssertionError("Helper.__init__ builds no self.ops table")


def op_table(document: str, heading: str) -> dict:
    """The markdown table under ``heading`` whose first column is
    ``op``: every backticked name in a row's first cell -> the row."""
    text = (DOCS / document).read_text(encoding="utf-8")
    section = text.split(heading, 1)[1]
    rows, seen_table = {}, False
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            if seen_table:
                break
            continue
        if not seen_table:
            seen_table = cells[0] == "op"
            continue
        if cells[0].startswith("—"):
            continue  # the unsolicited exit notice: no op
        for name in re.findall(r"`([a-z_]+)`", cells[0]):
            rows[name] = line
    assert rows, f"no op table under {heading!r} in {document}"
    return rows


def test_the_helper_speaks_one_launch_op():
    assert helper_ops() == {"ping", "shutdown", "spawn", "specialize",
                            "park", "unpark"}


def test_the_gateway_speaks_one_launch_op():
    assert "spawn_batch" not in protocol.OPS and "spawn" in protocol.OPS
    assert protocol.PROTOCOL_VERSION == 4


def test_forkserver_md_names_exactly_the_helpers_ops():
    assert set(op_table("FORKSERVER.md", "## Operations")) == helper_ops()


def test_gateway_md_names_exactly_the_protocols_ops_and_version():
    rows = op_table("GATEWAY.md", "## Wire protocol")
    assert set(rows) == set(protocol.OPS)
    assert f"`version` ({protocol.PROTOCOL_VERSION})" in rows["hello"]


def test_no_layer_takes_a_batch_flag():
    for info in pkgutil.iter_modules(repro.core.__path__):
        module = __import__(f"repro.core.{info.name}", fromlist=["_"])
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            for name, function in vars(cls).items():
                if inspect.isfunction(function):
                    assert "batch" not in inspect.signature(
                        function).parameters, f"{cls.__name__}.{name}"
        for _, function in inspect.getmembers(module, inspect.isfunction):
            assert "batch" not in inspect.signature(function).parameters


def test_every_strategy_takes_a_unit():
    for name in strategies():
        assert callable(get_strategy(name)._batch_steps), name


def test_the_daemon_replays_no_builder():
    assert not hasattr(server, "ProcessBuilder")
