import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_under_the_python_3_10_grammar(path):
    """`requires-python = ">=3.10"`: every source file parses with the 3.10 grammar.

    This checks grammar only (no `except*`, no PEP 695 type parameters, ...).
    A library API added after 3.10, such as `tomllib` or `datetime.UTC`, parses
    fine and fails only when a 3.10 interpreter runs it.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
