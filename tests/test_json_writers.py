"""Every indented JSON file goes through sscalc.json_write, straight to its
open file: no module in the package calls json.dump or json.dumps with an
indent, or writes the string form json_text itself.  One-line JSON, such
as the stderr error records, stays with the stdlib."""

import ast
import gc
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ssblow import cli, hierarchy, sscalc
from ssblow.sscalc import json_text

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


def json_text_calls(tree: ast.Module) -> list:
    """Line numbers of calls of json_text, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "json_text" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)))


def test_guard_sees_an_indented_call():
    tree = ast.parse("import json\njson.dumps({}, indent=2)\n"
                     "json.dumps({'error': 'usage'})\n")
    assert indented_json_calls(tree) == [2]


def test_guard_sees_a_json_text_call():
    tree = ast.parse("path.write_text(json_text(payload) + '\\n')\n"
                     "fh.write(sscalc.json_text(payload))\n"
                     "json_write(payload, fh.write)\n")
    assert json_text_calls(tree) == [1, 2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = indented_json_calls(tree)
    assert not lines, (f"{path.name}: json.dump(s) with indent on lines "
                       f"{lines}; use sscalc.json_write")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_writes_json_text(path):
    # the whole text of a report in memory is what json_write avoids
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = json_text_calls(tree)
    assert not lines, (f"{path.name}: json_text on lines {lines}; write "
                       "files through sscalc.json_write")


def test_json_text_leaves_no_garbage_cycle():
    # the writer's nested closures used to hold each other, keeping the
    # list of parts alive until the cyclic collector ran
    obj = {"a": [1, {"b": [2.5, None, (True,)]}], "c": "x"}
    gc.collect()
    gc.disable()
    try:
        json_text(obj)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_failed_json_file_is_removed(tmp_path, monkeypatch):
    # one-part chunks: the list reaches the file before the Fraction fails
    monkeypatch.setattr(sscalc, "_CHUNK", 1)
    path = tmp_path / "report.json"
    path.write_text("an older report\n")
    with pytest.raises(TypeError):
        cli._write_json(path, {"rows": list(range(100)),
                               "ratio": Fraction(1, 2)})
    assert not path.exists()


def test_failed_derive_leaves_no_hierarchy_json(tmp_path, monkeypatch):
    real = hierarchy.report_to_json
    monkeypatch.setattr(sscalc, "_CHUNK", 1)
    monkeypatch.setattr(hierarchy, "report_to_json",
                        lambda report: {**real(report),
                                        "zz": Fraction(1, 2)})
    with pytest.raises(TypeError):
        cli.main(["derive", "--depth", "2", "--out", str(tmp_path)])
    assert not (tmp_path / "hierarchy.json").exists()


def test_derive_json_live_peak_is_bounded(tmp_path, capsys):
    # the depth-12 generalized report is 0.72 MB of text; holding it, its
    # parts and its encoded bytes at once peaked at 5.7 MB, and streaming
    # it leaves the derivation and report_to_json's tree, about 2.4 MB
    argv = ["derive", "--mode", "generalized", "--depth", "12",
            "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "hierarchy.json").stat().st_size == 722_503
    assert peak < 3.5e6
