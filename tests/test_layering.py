"""The package's module graph, read from the relative imports of
`src/rlslp/*.py`: it has no cycle, and `grammar` imports no sibling.

A cycle shows only when a module is imported, as a partially
initialized module, so it is checked here on the source.
"""

import ast
from pathlib import Path

import rlslp

PACKAGE = Path(rlslp.__file__).parent


def sibling_imports(path: Path) -> set[str]:
    """Sibling modules a module imports with `from . import x` or
    `from .x import y`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def module_graph() -> dict[str, set[str]]:
    return {p.stem: sibling_imports(p) for p in PACKAGE.glob("*.py")}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """Some cycle of the graph as a path that ends where it starts, or
    None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_module_graph_is_acyclic():
    graph = module_graph()
    assert {"engine", "grammar", "slg"} <= graph.keys()
    for node, targets in graph.items():
        assert targets <= graph.keys(), node
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_grammar_imports_no_sibling():
    assert module_graph()["grammar"] == set()


def test_cycle_finder_finds_cycles():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == [
        "a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
