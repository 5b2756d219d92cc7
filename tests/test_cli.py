import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import permsym
from permsym import relations
from permsym.cli import run
from permsym.patterns import pattern_from_text, pattern_to_text
from lattice_expectations import LABELS_BY_MASK
from witness_oracle import replay_move


def _run(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_lattice_count_only(capsys):
    code, out, _ = _run(capsys, "lattice", "--count-only")
    assert code == 0 and out == "39\n"


def test_lattice_text(capsys):
    code, out, _ = _run(capsys, "lattice", "--format", "text")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 39
    assert lines[0] == "bottom: -"
    assert lines[-1] == "sym: abcdefghij"
    assert "h: eh" in lines


def test_lattice_json(capsys):
    code, out, _ = _run(capsys, "lattice")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 39
    assert [x["label"] for x in data["elements"]] == LABELS_BY_MASK
    assert len(data["covers"]) == 86
    assert ["bottom", "a"] in data["covers"]


def test_lattice_dot(capsys):
    code, out, _ = _run(capsys, "lattice", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert out.endswith("}\n")


def test_closure_trace_text(capsys):
    code, out, _ = _run(capsys, "closure", "h")
    assert code == 0
    assert out.splitlines() == [
        "input: h",
        "preserves: r1,r2,r4,r9",
        "closed: eh",
        "label: h",
    ]


def test_closure_json(capsys):
    code, out, _ = _run(capsys, "closure", "fg", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data == {
        "input": "fg",
        "members": "efg",
        "label": "ef",
        "preserves": ["st", "r2", "r4", "r7"],
    }


def test_closure_rejects_unknown_letters(capsys):
    code, _, err = _run(capsys, "closure", "xyz")
    assert code == 2
    assert "unknown letters" in err


def test_classify_text(capsys):
    code, out, _ = _run(capsys, "classify", "--behavior", "t1,t2")
    assert code == 0 and out == "named: id\n"
    code, out, _ = _run(capsys, "classify", "--behavior", "t1,t1")
    assert code == 0 and out == "diagonal: order 1, preserve\n"
    code, out, _ = _run(capsys, "classify", "--behavior", "t4,t4")
    assert code == 0 and out == "diagonal: order 1, reverse\n"


def test_classify_json(capsys):
    code, out, _ = _run(capsys, "classify", "--behavior", "t4,t1",
                        "--format", "json")
    assert code == 0
    assert json.loads(out) == {"class": "named", "detail": "sw.id/rev"}


def test_classify_rejects_garbage(capsys):
    code, _, err = _run(capsys, "classify", "--behavior", "t1")
    assert code == 2
    assert "behavior" in err


def test_table_csv(capsys):
    code, out, _ = _run(capsys, "table")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "label," + ",".join(relations.RELATION_NAMES)
    assert len(lines) == 40
    assert lines[1] == "bottom," + ",".join(["1"] * 20)
    assert lines[-1] == "sym," + ",".join(["0"] * 20)
    assert lines[2].startswith("a,")


def test_table_json(capsys):
    code, out, _ = _run(capsys, "table", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert list(data) == ["rows"]
    labels = [row["label"] for row in data["rows"]]
    assert labels[0] == "bottom" and labels[-1] == "sym" and len(labels) == 39
    assert data["rows"][0]["bits"]["lt1"] is True


def test_table_diff_pins_the_one_difference(capsys):
    # the published table marks (de, r1); the computation refutes it
    code, out, _ = _run(capsys, "table", "--diff")
    assert code == 1
    assert out.splitlines() == [
        "1 mismatches",
        "  de r1: golden=1 computed=0",
    ]


def test_table_diff_json(capsys):
    code, out, _ = _run(capsys, "table", "--diff", "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert list(data) == ["mismatches"]
    assert data["mismatches"] == [
        {"label": "de", "relation": "r1", "golden": True, "computed": False}]


def _corrected_golden(tmp_path):
    text = resources.files("permsym.data").joinpath("golden_table.csv").read_text()
    lines = text.strip().splitlines()
    k = 1 + relations.RELATION_NAMES.index("r1")
    fixed = []
    for line in lines:
        fields = line.split(",")
        if fields[0] == "de":
            assert fields[k] == "1"
            fields[k] = "0"
        fixed.append(",".join(fields))
    path = tmp_path / "corrected.csv"
    path.write_text("\n".join(fixed) + "\n")
    return str(path)


def test_table_diff_against_corrected_golden(capsys, tmp_path):
    code, out, _ = _run(capsys, "table", "--diff", "--golden",
                        _corrected_golden(tmp_path))
    assert code == 0
    assert out == "0 mismatches\n"


@pytest.mark.parametrize("make", ["missing", "directory", "empty"])
def test_table_golden_unreadable(capsys, tmp_path, make):
    path = tmp_path / "golden.csv"
    if make == "directory":
        path.mkdir()
    elif make == "empty":
        path.write_text("")
    code, out, err = _run(capsys, "table", "--diff", "--golden", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_table_golden_needs_diff(capsys, tmp_path):
    code, out, err = _run(capsys, "table", "--golden", _corrected_golden(tmp_path))
    assert code == 2 and out == ""
    assert err == "error: --golden needs --diff\n"


def test_witness_text(capsys):
    code, out, _ = _run(capsys, "witness", "e", "cyc1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "relation: cyc1"
    assert lines[1].startswith("pattern: ")
    assert lines[3].startswith("word: ")


def test_witness_json_replays(capsys):
    for label, rel, move, image_points in [
            ("f", "lt1", "sw", [2, 1]), ("i", "sep2", "i@1234", [1, 4, 2, 3])]:
        code, out, _ = _run(capsys, "witness", label, rel, "--format", "json")
        data = json.loads(out)
        assert code == 0 and (data["label"], data["relation"]) == (label, rel)
        assert (data["word"], data["image_points"]) == ([move], image_points)
        src = pattern_from_text(data["pattern"])
        image, mapping = replay_move(move, src)
        assert pattern_to_text(image) == data["image_pattern"]
        assert [mapping[x - 1] + 1 for x in data["points"]] == image_points
        assert relations.evaluate(rel, src, tuple(x - 1 for x in data["points"]))
        assert not relations.evaluate(rel, image, tuple(x - 1 for x in image_points))


def test_witness_for_preserved_cell(capsys):
    code, out, _ = _run(capsys, "witness", "e", "btw1")
    assert code == 1
    assert out == "e preserves btw1 at every size; no witness exists\n"


def test_size_and_word_bounds_are_gone(capsys):
    # --max-size 1 used to print an all-ones table and exit 0
    for argv in (["table", "--max-size", "1"], ["table", "--max-word", "1"],
                 ["witness", "e", "cyc1", "--max-size", "6"]):
        code, out, _ = _run(capsys, *argv)
        assert code == 2 and out == "", argv


def test_witness_validation(capsys):
    code, _, err = _run(capsys, "witness", "zz", "lt1")
    assert code == 2 and "unknown group label" in err
    code, _, err = _run(capsys, "witness", "e", "nope")
    assert code == 2 and "unknown relation" in err


def test_orbits_text(capsys):
    code, out, _ = _run(capsys, "orbits", "--pattern", "213",
                        "--constants", "2")
    assert code == 0
    assert out.splitlines() == [
        "pattern: 213",
        "constants: p2",
        "cell (1,0): p1",
        "cell (1,1): p3",
    ]


def test_orbits_json(capsys):
    code, out, _ = _run(capsys, "orbits", "--pattern", "3142",
                        "--constants", "", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data == {
        "pattern": "3142",
        "constants": [],
        "cells": [{"row": 0, "col": 0, "points": [1, 2, 3, 4]}],
    }


def test_orbits_constant_out_of_range_is_one_based(capsys):
    code, out, err = _run(capsys, "orbits", "--pattern", "123",
                          "--constants", "4")
    assert (code, out, err) == (2, "", "error: constant point 4 out of range 1..3\n")


def _sample_file(tmp_path, payload):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(payload))
    return str(path)


MIXED_SAMPLE = {
    "source_pattern": "12345",
    "image_pattern": "12354",
    "map": [[1, 1], [2, 2], [4, 4], [5, 5]],
    "constants": [3],
}


def test_check_canonical_file(capsys, tmp_path):
    code, out, _ = _run(capsys, "check-canonical",
                        _sample_file(tmp_path, MIXED_SAMPLE))
    data = json.loads(out)
    assert code == 0
    assert data["canonical"] is True
    assert data["mixed"] is True
    assert {c["observed"]["t1"] for c in data["cells"]} == {"t1", "t2"}


def test_check_canonical_stdin(capsys, monkeypatch):
    payload = {
        "source_pattern": "123456",
        "image_pattern": "123465",
        "map": [[4, 4], [5, 5], [6, 6]],
        "constants": [3],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, _ = _run(capsys, "check-canonical", "-")
    data = json.loads(out)
    assert code == 1
    assert data["canonical"] is False
    bad = [c for c in data["cells"] if not c["consistent"]]
    assert len(bad) == 1
    assert bad[0]["counterexample"] == [[4, 5], [5, 6]]


_PATTERNS_123 = '"source_pattern": "123", "image_pattern": "123"'


@pytest.mark.parametrize("text, message", [
    ('{%s}' % _PATTERNS_123, "sample lacks map"),
    ("[1, 2]", "sample must be a JSON object"),
    ('{%s, "map": [[1, 1], [2, 2], [9, 3]]}' % _PATTERNS_123,
     "source point 9 out of range 1..3"),
    ('{%s, "map": [[1, 1], [1, 1]]}' % _PATTERNS_123,
     "source point 1 mapped twice"),
    ('{%s, "map": [[1, 1]], "constants": [2.5]}' % _PATTERNS_123,
     "constant point 2.5 is not an integer"),
    ('{%s, "map": [[1.9, 1], [true, 2]]}' % _PATTERNS_123,
     "source point 1.9 is not an integer"),
    ('{%s, "map": [[1, 1], [true, 2]]}' % _PATTERNS_123,
     "source point true is not an integer"),
    ('{%s, "map": [[1, "2"]]}' % _PATTERNS_123,
     'image point "2" is not an integer'),
    (None, "cannot read sample"),
    ('{"source_pattern": 123, "image_pattern": 123, "map": [[1, 1], [2, 2], [3, 3]]}',
     "source_pattern must be a string"),
    ('{"source_pattern": "123", "image_pattern": [1, 2, 3], "map": [[1, 1]]}',
     "image_pattern must be a string"),
], ids=["missing-key", "not-an-object", "source-out-of-range",
        "repeated-source", "float-constant", "float-source", "bool-source",
        "string-image", "missing-file", "number-pattern", "list-pattern"])
def test_check_canonical_rejects_bad_input(capsys, monkeypatch, tmp_path,
                                           text, message):
    path = str(tmp_path / "missing.json")
    if text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path = "-"
    code, out, err = _run(capsys, "check-canonical", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_ramsey_command(capsys):
    code, out, _ = _run(capsys, "ramsey", "--delta", "123",
                        "--gamma", "1", "--omega", "12")
    assert code == 0 and out == "true\n"
    code, out, _ = _run(capsys, "ramsey", "--delta", "132",
                        "--gamma", "1", "--omega", "12")
    assert code == 1 and out == "false\n"
    code, out, _ = _run(capsys, "ramsey", "--delta", "123",
                        "--gamma", "1", "--omega", "12", "--format", "json")
    assert code == 0 and json.loads(out) == {"result": True}


def test_ramsey_search_command(capsys):
    code, out, _ = _run(capsys, "ramsey-search", "--gamma", "1",
                        "--omega", "12")
    assert code == 0 and out == "123\n"
    code, out, _ = _run(capsys, "ramsey-search", "--gamma", "1",
                        "--omega", "12", "--max-n", "2")
    assert code == 1 and out == "none\n"
    code, out, _ = _run(capsys, "ramsey-search", "--gamma", "1",
                        "--omega", "21", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"pattern": "321", "infeasible": []}
    code, out, err = _run(capsys, "ramsey-search", "--gamma", "12",
                          "--omega", "123", "--max-n", "6")
    assert (code, out, err) == (0, "123456\n", "")


def test_ramsey_search_warns_of_hosts_over_budget(capsys, monkeypatch):
    # With a budget of 2 copies, host 123 (three copies of 12) is skipped,
    # not decided, and no other host of size 3 verifies.
    monkeypatch.setattr("permsym.ramsey.MAX_COPIES", 2)
    argv = ("ramsey-search", "--gamma", "12", "--omega", "123", "--max-n", "3")
    warning = "warning: host 123 over budget, skipped\n"
    assert _run(capsys, *argv) == (1, "none\n", warning)
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, warning)
    assert json.loads(out) == {"pattern": None, "infeasible": ["123"]}


def test_ramsey_search_rejects_negative_max_n(capsys):
    code, out, err = _run(capsys, "ramsey-search", "--gamma", "1",
                          "--omega", "12", "--max-n", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors(capsys):
    assert _run(capsys, )[0] == 2
    assert _run(capsys, "no-such-command")[0] == 2
    assert _run(capsys, "orbits", "--pattern", "10")[0] == 2
    assert _run(capsys, "orbits", "--pattern", "213", "--constants", "0")[0] == 2
    assert _run(capsys, "ramsey", "--delta", "12", "--gamma", "1")[0] == 2


def test_help_exits_cleanly(capsys):
    assert _run(capsys, "--help")[0] == 0


def test_output_is_deterministic(capsys):
    first = _run(capsys, "lattice")
    second = _run(capsys, "lattice")
    assert first == second
    first = _run(capsys, "table")
    second = _run(capsys, "table")
    assert first == second


def test_closed_stdout_exits_without_traceback():
    # like "permsym lattice | head -1" once head has gone
    env = dict(os.environ,
               PYTHONPATH=str(Path(permsym.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "permsym.cli", "lattice"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
