"""Reports reach JSON at one boundary: ``cli._emit_json``.

Library results keep exact values as Fractions and measured ones as floats;
the emitter alone writes a Fraction as "a/b" (an integer when b = 1) and a
float with 15 significant digits.  The structural test reads the sources
only.
"""

import ast
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from qgames.checks import CheckResult
from qgames.cli import _emit_json

SRC = Path(__file__).resolve().parents[1] / "src" / "qgames"


@dataclass(frozen=True)
class _Report:
    values: tuple
    measured: float


def test_emitter_writes_fractions_and_rounds_floats(capsys):
    _emit_json(_Report((Fraction(2, 3), Fraction(-4, 2)), 1 / 3))
    assert capsys.readouterr().out == (
        '{\n  "values": [\n    "2/3",\n    -2\n  ],\n  "measured": 0.333333333333333\n}\n'
    )


def test_emitter_writes_a_check_result_as_before(capsys):
    result = CheckResult(2, "name", True, "detail", {"value": Fraction(5, 6), "row": [Fraction(1), 0.1 + 0.2]})
    _emit_json(result)
    assert capsys.readouterr().out == (
        '{\n  "number": 2,\n  "name": "name",\n  "passed": true,\n  "detail": "detail",\n'
        '  "data": {\n    "value": "5/6",\n    "row": [\n      1,\n      0.3\n    ]\n  }\n}\n'
    )


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of each call to ``name`` or
    ``<x>.name`` under src/qgames; "<module>" outside every function."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for function in ast.walk(tree):  # outer functions first: inner ones overwrite
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(function), function.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if called == name:
                    found.add((path.stem, scope.get(node, "<module>")))
    return found


def test_only_the_emitter_writes_json():
    assert _callers("dumps") == {("cli", "_emit_json")}
    assert _callers("scalar_to_json") == {("cli", "_json_form")}
