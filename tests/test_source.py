"""Checks on the package source itself, in place of a linter."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

import pytest

import gluesurf

SOURCE = Path(gluesurf.__file__).resolve().parent


# module-level functions that the interpreter calls by name (PEP 562)
HOOKS = {"__getattr__", "__dir__"}


def exported_names(init: Path) -> dict[str, int]:
    """Each name of the package's export table ``_EXPORTS`` in ``init``,
    mapped to the line where it stands."""
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS":
            return {c.value: c.lineno for names in node.value.values for c in names.elts}
    raise AssertionError(f"{init} has no _EXPORTS table")


def name_sites(source: Path, exports_count: bool = True) -> defaultdict:
    """Each name of a token in ``source/*.py``, mapped to the set of (file,
    line) where it stands; the export table of ``__init__.py``, whose
    entries are strings, is read only if ``exports_count``.  Comments and
    other strings hold no name."""
    named_on = defaultdict(set)
    for path in sorted(source.glob("*.py")):
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME:
                named_on[tok.string].add((path.name, tok.start[0]))
    if exports_count:
        for name, line in exported_names(source / "__init__.py").items():
            named_on[name].add(("__init__.py", line))
    return named_on


def unused_definitions(source: Path, exports_count: bool = True) -> list[str]:
    """Top-level functions and classes of ``source/*.py``, interpreter hooks
    aside, that no other line of code there names; the export table of
    ``__init__.py`` names what it lists unless ``exports_count`` is false."""
    named_on = name_sites(source, exports_count)
    definitions = [(node.name, path.name, node.lineno)
                   for path in sorted(source.glob("*.py"))
                   for node in ast.parse(path.read_text()).body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and node.name not in HOOKS]
    return [f"{file}:{line} {name}" for name, file, line in definitions
            if not named_on[name] - {(file, line)}]


def unread_members(source: Path) -> list[str]:
    """Methods and properties, dunders aside, of the top-level classes of
    ``source/*.py`` whose name no other line of code there holds."""
    named_on = name_sites(source)
    out = []
    for path in sorted(source.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not member.name.startswith("__")
                            and not named_on[member.name] - {(path.name, member.lineno)}):
                        out.append(f"{path.name} {node.name}.{member.name}")
    return out


def unused_imports(source: Path) -> list[str]:
    """Names imported into a module of ``source`` other than ``__init__.py``
    that no other token of that module names.  Comments and strings do not
    count."""
    out = []
    for path in sorted(source.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        named_on = defaultdict(set)  # name -> the line of each of its tokens
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                named_on[tok.string].add(tok.start[0])
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and not named_on[name] - set(
                            range(node.lineno, node.end_lineno + 1)):
                        out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_definition_is_used_or_exported():
    assert unused_definitions(SOURCE) == []


# the definitions that no module of the package reads, and why each stays
UNREAD = {
    "fourlines.py d4_action": "bench/tracer.LAYERS wraps it",
    "gluing.py quotient_curve": "bench/tracer.LAYERS wraps it",
    "gluing.py gluing_to_dict": "the README documents it",
    "grouptheory.py word_from_str": "the README documents it",
    "invariants.py picard_summary": "ROADMAP item 11 puts it on the CLI",
}


def test_only_the_listed_definitions_go_unread():
    # a new definition that only the tests call fails here
    unread = [re.sub(r":\d+", "", entry)  # without the line number
              for entry in unused_definitions(SOURCE, exports_count=False)]
    assert sorted(unread) == sorted(UNREAD)


# the methods and properties that no module of the package reads, and why each stays
UNREAD_MEMBERS = {
    "intlinalg.py IntegerMatrix.entries": "bench/tracer._max_bits reads it",
}


def test_only_the_listed_members_go_unread():
    # a method or property that only the tests call fails here
    assert sorted(unread_members(SOURCE)) == sorted(UNREAD_MEMBERS)


def test_every_import_is_used():
    assert unused_imports(SOURCE) == []


def dataclasses_in(source: Path) -> list[str]:
    """The classes of ``source/*.py`` with a ``dataclass`` decorator, called or not."""
    out = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Call):
                        decorator = decorator.func
                    if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
                        out.append(f"{path.name} {node.name}")
    return out


def test_only_homology_of_x_is_a_dataclass():
    # the value types are plain classes over base.Record, which spares
    # each fresh process the dataclass machinery; HomologyOfX stays one
    # because bench/tests/test_bench.py::test_wrong_h1_counts_as_an_error
    # calls dataclasses.replace on it
    assert dataclasses_in(SOURCE) == ["topology.py HomologyOfX"]


def stdout_prints(source: Path) -> list[str]:
    """Each ``print`` call of ``source/*.py`` without a ``file=`` argument,
    named by its file and the top-level definition that holds it."""
    return [f"{path.name} {getattr(top, 'name', top.lineno)}"
            for path in sorted(source.glob("*.py"))
            for top in ast.parse(path.read_text()).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
            and not any(keyword.arg == "file" for keyword in node.keywords)]


def test_only_cli_main_prints_to_stdout():
    # each command returns its document and its lines, and main prints one of them
    assert stdout_prints(SOURCE) == ["cli.py main"]


def occurrences(source: Path, text: str) -> int:
    """How often ``text`` stands in ``source/*.py``, code, strings and comments alike."""
    return sum(path.read_text().count(text) for path in source.glob("*.py"))


@pytest.mark.parametrize("message", ["image tuples exceed the budget", "letter steps"])
def test_each_budget_message_is_written_once(message):
    # one helper checks both of hom_count's bounds, for hom_count and fingerprint alike
    assert occurrences(SOURCE, message) == 1


@pytest.mark.parametrize("name", ["cusp_matrix", "cusp_pair_sums", "MayerVietorisMatrices",
                                  "exponent_sum_matrix", "_exponent_column",
                                  "pi1_abelianization"])
def test_each_value_has_one_route(name):
    # R is the one matrix over the cusps: q and H1 both read it, and the
    # paper's cusp matrix C = -2 R^T is built only by the tests, as an
    # oracle.  A presentation counts its exponent sums once, into the matrix
    # it reduces; the tests keep the full exponent-sum matrix as the oracle.
    # The report's ab(pi1) is its H1, with no field of its own
    assert occurrences(SOURCE, name) == 0
