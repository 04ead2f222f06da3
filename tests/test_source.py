import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coverkit"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant check written as
    # one would silently stop running; checks in coverkit are raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    if not SRC.is_dir() or found:
        raise AssertionError(f"assert statements in src/coverkit: {found or 'no sources found'}")
