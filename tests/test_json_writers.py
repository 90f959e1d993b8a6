"""Every indented JSON file goes through sscalc.json_text: no module in the
package calls json.dump or json.dumps with an indent.  One-line JSON, such
as the stderr error records, stays with the stdlib."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ssblow"


def indented_json_calls(tree: ast.Module) -> list:
    """Line numbers of json.dump/json.dumps calls given an indent."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")
                and any(kw.arg == "indent" for kw in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_guard_sees_an_indented_call():
    tree = ast.parse("import json\njson.dumps({}, indent=2)\n"
                     "json.dumps({'error': 'usage'})\n")
    assert indented_json_calls(tree) == [2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = indented_json_calls(tree)
    assert not lines, (f"{path.name}: json.dump(s) with indent on lines "
                       f"{lines}; use sscalc.json_text")
