"""The lab's bits rest on numpy's public surface (ROADMAP item 8).

Only nn binds numpy internals, its documented ``__wrapped__`` and
``c_einsum`` bindings with public fallbacks; no module replays or rewinds
an rng's internal state. The modules are parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sdalab"
MODULES = sorted(SRC.glob("*.py"))


def internals(tree: ast.AST) -> set:
    """What of numpy's internals a module's code reaches: "core" for an
    import from, or attribute of, numpy._core or numpy.core; "__wrapped__"
    for that attribute or name in a string (getattr's); "state" for
    ``.bit_generator.state``, read or set."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = []
        if any(name.split(".")[:2] in (["numpy", "_core"], ["numpy", "core"]) for name in names):
            found.add("core")
        if isinstance(node, ast.Attribute):
            if (node.attr in ("_core", "core") and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                found.add("core")
            if node.attr == "__wrapped__":
                found.add("__wrapped__")
            if (node.attr == "state" and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "bit_generator"):
                found.add("state")
        if isinstance(node, ast.Constant) and node.value == "__wrapped__":
            found.add("__wrapped__")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_nn_binds_numpy_internals_and_none_touches_rng_state(path):
    found = internals(ast.parse(path.read_text(), filename=str(path)))
    allowed = {"core", "__wrapped__"} if path.stem == "nn" else set()
    assert found <= allowed, f"{path.name} reaches numpy internals: {sorted(found - allowed)}"


def test_the_guard_sees_each_form():
    assert internals(ast.parse("from numpy._core.multiarray import c_einsum")) == {"core"}
    assert internals(ast.parse("import numpy.core.multiarray")) == {"core"}
    assert internals(ast.parse("x = np._core.multiarray")) == {"core"}
    assert internals(ast.parse("f = getattr(np.dot, '__wrapped__', np.dot)")) == {"__wrapped__"}
    assert internals(ast.parse("f = np.where.__wrapped__")) == {"__wrapped__"}
    assert internals(ast.parse("s = rng.bit_generator.state")) == {"state"}
    assert internals(ast.parse("rng.bit_generator.state = s")) == {"state"}
    assert internals(ast.parse("v = rng.integers(0, 5); s = opt.state")) == set()
    assert {"core", "__wrapped__"} <= internals(ast.parse((SRC / "nn.py").read_text()))
