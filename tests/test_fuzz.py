"""Fuzzed command lines: every input ends in a report or a one-line error.

Each command either exits 0 or 1 with output on stdout, or exits 2 with
exactly one line on stderr; nothing escapes `cli.run` as an exception.
Only the cheap commands are fuzzed, with bounded sizes.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from permsym import relations
from permsym.cli import run
from lattice_expectations import LABELS_BY_MASK

FUZZ = settings(max_examples=150, deadline=None)

# Short text from a small alphabet, so near-valid inputs are common.
_text = st.text(alphabet="abcdefghijxyz0123456789,-@ ", max_size=8)
_digits = st.text(alphabet="0123456789", max_size=6)
_pattern = st.one_of(
    st.integers(1, 6).flatmap(lambda n: st.permutations("123456"[:n])).map("".join),
    _digits,
)


def _check(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if stdin is not None:
            stack.enter_context(mock.patch("sys.stdin", io.StringIO(stdin)))
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    else:
        assert code in (0, 1) and out, (argv, code, out, err)


@FUZZ
@given(st.text(alphabet="abcdefghijk-", max_size=12), st.booleans())
def test_fuzz_closure(letters, as_json):
    _check(["closure", letters] + (["--format", "json"] if as_json else []))


@FUZZ
@given(st.one_of(_text, st.lists(st.sampled_from(["t1", "t2", "t3", "t4", "T2", "x"]),
                                 max_size=3).map(",".join)))
def test_fuzz_classify(behavior):
    _check(["classify", "--behavior", behavior])


@FUZZ
@given(_pattern, st.lists(st.integers(-1, 8), max_size=4).map(
    lambda xs: ",".join(map(str, xs))), st.booleans())
def test_fuzz_orbits(pattern, constants, as_json):
    _check(["orbits", "--pattern", pattern, "--constants", constants]
           + (["--format", "json"] if as_json else []))


@FUZZ
@given(st.one_of(st.sampled_from(LABELS_BY_MASK), _text),
       st.one_of(st.sampled_from(relations.RELATION_NAMES), _text))
def test_fuzz_witness(label, relation):
    _check(["witness", label, relation])


_GOLDEN_HEADER = "label," + ",".join(relations.RELATION_NAMES)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.sampled_from(["missing", "dir"]),
    st.text(max_size=60),
    st.lists(st.text(alphabet="01,abx", max_size=45), max_size=3).map(
        lambda rows: "\n".join([_GOLDEN_HEADER] + rows)),
), st.booleans())
def test_fuzz_table_golden(content, diff):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.csv")
        if content == "dir":
            os.mkdir(path)
        elif content != "missing":
            with open(path, "w") as fh:
                fh.write(content)
        _check(["table", "--golden", path] + (["--diff"] if diff else []))


_point = st.one_of(st.integers(-1, 7), st.text(alphabet="12x", max_size=2), st.none())
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_sample = st.one_of(
    st.fixed_dictionaries(
        {"source_pattern": _pattern, "image_pattern": _pattern,
         "map": st.lists(st.one_of(st.lists(_point, min_size=2, max_size=2), _json),
                         max_size=6)},
        optional={"constants": st.one_of(st.lists(_point, max_size=3), _json)}),
    _json,
)


@FUZZ
@given(st.one_of(_sample.map(json.dumps), st.text(max_size=20)))
def test_fuzz_check_canonical(text):
    _check(["check-canonical", "-"], stdin=text)
