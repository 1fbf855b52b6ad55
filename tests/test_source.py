"""Checks on the package source itself, in place of a linter."""

from __future__ import annotations

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

import gluesurf

SOURCE = Path(gluesurf.__file__).resolve().parent


def unused_definitions(source: Path) -> list[str]:
    """Top-level functions and classes of ``source/*.py`` that no other line
    of code there names; an import into ``__init__.py`` exports a name, so
    it names it too.  Comments and strings do not count."""
    named_on = defaultdict(set)  # name -> the (file, line) of each of its tokens
    definitions = []
    for path in sorted(source.glob("*.py")):
        text = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                named_on[tok.string].add((path.name, tok.start[0]))
        definitions += [(node.name, path.name, node.lineno) for node in ast.parse(text).body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [f"{file}:{line} {name}" for name, file, line in definitions
            if not named_on[name] - {(file, line)}]


def test_every_definition_is_used_or_exported():
    assert unused_definitions(SOURCE) == []
