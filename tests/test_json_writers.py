"""Every indented JSON file goes through sscalc.json_write, straight to its
open file: no module in the package calls json.dump or json.dumps with an
indent, or hands json_write or hierarchy.emit a sink other than a write,
so no module holds a whole report's text.  One-line JSON, such as the
stderr error records, stays with the stdlib."""

import ast
import gc
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ssblow import cli, hierarchy, sscalc
from ssblow.sscalc import json_write

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


#: the writers that take a sink, and the position of the sink argument
SINK_ARGS = {"json_write": 1, "emit": 2}


def non_write_sinks(tree: ast.Module) -> list:
    """Line numbers of json_write and emit calls, by name or as an
    attribute, whose sink is not spelled `write` or `<x>.write`."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                         None)
        if name not in SINK_ARGS:
            continue
        at = SINK_ARGS[name]
        sink = (node.args[at] if len(node.args) > at else
                next((kw.value for kw in node.keywords if kw.arg == "write"),
                     None))
        if not (isinstance(sink, ast.Name) and sink.id == "write"
                or isinstance(sink, ast.Attribute) and sink.attr == "write"):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_an_indented_call():
    tree = ast.parse("import json\njson.dumps({}, indent=2)\n"
                     "json.dumps({'error': 'usage'})\n")
    assert indented_json_calls(tree) == [2]


def test_guard_sees_a_sink_that_is_not_a_write():
    tree = ast.parse("json_write(obj, parts.append)\n"
                     "hierarchy.emit(report, 'json', chunks.append)\n"
                     "sscalc.json_write(obj, sink, sort_keys=True)\n"
                     "json_write(obj)\n"
                     "json_write(payload, fh.write)\n"
                     "json_write(obj, write, sort_keys=True)\n"
                     "emit(report, fmt, write=fh.write)\n")
    assert non_write_sinks(tree) == [1, 2, 3, 4]


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
    # the whole text of a report in memory is what json_write avoids: every
    # sink in the package is a file's write, or a write handed on to it
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = non_write_sinks(tree)
    assert not lines, (f"{path.name}: a sink that is not a write on lines "
                       f"{lines}; write the text straight to its file")


def test_json_write_leaves_no_garbage_cycle():
    # the writer's nested closures used to hold each other, keeping the
    # list of parts alive until the cyclic collector ran
    obj = {"a": [1, {"b": [2.5, None, (True,)]}], "c": "x"}
    parts = []
    gc.collect()
    gc.disable()
    try:
        json_write(obj, parts.append)
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
