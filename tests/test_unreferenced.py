"""Every function, class and method in src/mobman is used by the program.

A definition counts as used when its name is read somewhere in src/mobman
outside its own definition, or anywhere in benchmarks/*.py, where names are
also rebound by their string (benchmarks/spans.py). Tests do not count: code
that only a test calls is dead weight for the program. The check is by name,
so it can miss a dead method whose name is read elsewhere.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although no src or benchmark code reads it
ALLOWED = {
    "as_matrix": "the rotation-matrix oracle of acceptance criterion 1",
    "scaled": "acceptance criterion 8 scales MatchWeights with it",
    "train_regression": "the mean-regression control of criterion 5d and ROADMAP item 4",
}


def _reads(tree: ast.AST, strings: bool) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute read in tree, and of every string if strings."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def _unreferenced() -> list[str]:
    paths = sorted((ROOT / "src" / "mobman").glob("*.py"))
    src = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    reads = {p: _reads(tree, strings=False) for p, tree in src.items()}
    bench = {
        name
        for p in (ROOT / "benchmarks").glob("*.py")
        for name, _ in _reads(ast.parse(p.read_text(encoding="utf-8")), strings=True)
    }
    dead = []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in bench:
                continue
            if any(
                n == name and (p != path or not node.lineno <= line <= node.end_lineno)
                for p, found in reads.items()
                for n, line in found
            ):
                continue
            dead.append(f"{path.name}:{node.lineno} {name}")
    return dead


def test_every_definition_is_referenced():
    dead = _unreferenced()
    assert [d for d in dead if d.split()[-1] not in ALLOWED] == []
    # an allowed name that the program has come to use, or has dropped, leaves the list
    assert sorted({d.split()[-1] for d in dead}) == sorted(ALLOWED)
