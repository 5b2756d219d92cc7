from itertools import chain, combinations

import pytest

from permsym.lattice import (
    LETTERS, FULL,
    closure, closure_trace, minimal_label, enumerate_lattice,
    find, hasse, export_dot,
)
from permsym.letters import letter_witness
from permsym.preservation import full_table
from permsym.relations import RELATION_NAMES
from lattice_expectations import EXPECTED_MEMBERS, LABELS_BY_MASK, PROPER_LABELS
from witness_oracle import letters_in_group


def _subsets(letters):
    items = list(letters)
    return chain.from_iterable(
        combinations(items, k) for k in range(len(items) + 1))


def test_lattice_count_and_order():
    elements = enumerate_lattice()
    assert len(elements) == 39
    assert [x.name for x in elements] == LABELS_BY_MASK


def test_member_sets_frozen():
    table = {x.name: x for x in enumerate_lattice()}
    assert set(table) == set(EXPECTED_MEMBERS)
    for label, letters in EXPECTED_MEMBERS.items():
        assert table[label].members == frozenset(letters), label


def test_proper_labels():
    assert sorted(PROPER_LABELS) == sorted(set(LABELS_BY_MASK) - {"bottom", "sym"})
    assert len(PROPER_LABELS) == 37


def test_closure_is_extensive_and_idempotent():
    for s in _subsets(LETTERS):
        c = closure(s)
        assert frozenset(s) <= c
        assert closure(c) == c


def test_closure_is_monotone():
    for t in _subsets(LETTERS):
        big = closure(t)
        for s in _subsets(t):
            assert closure(s) <= big


def test_closure_keeps_every_shared_invariant():
    # A letter that breaks a relation all of s preserves is outside s's group.
    for s in _subsets(LETTERS):
        shared = [rel for rel in RELATION_NAMES
                  if all(letter_witness(x, rel) is None for x in s)]
        for x in closure(s):
            assert all(letter_witness(x, rel) is None for rel in shared), (s, x)


def test_closure_contains_sound_lower_bound():
    for s in _subsets(LETTERS):
        assert letters_in_group("".join(s)) <= closure(s), s


def test_closure_rejects_unknown_letters():
    with pytest.raises(ValueError):
        closure("ax")


TRACE_CASES = [
    ("h", "eh", ("r1", "r2", "r4", "r9")),
    ("bf", "bdf", ("r3", "r4", "r7")),
    ("fg", "efg", ("st", "r2", "r4", "r7")),
    ("ai", "abi", ("lt1", "btw1", "cyc1", "sep1")),
    ("a", "a", ("lt1", "btw1", "cyc1", "sep1", "btw2", "sep2", "r2", "r4")),
]


@pytest.mark.parametrize("start,expect,preserves", TRACE_CASES)
def test_closure_traces(start, expect, preserves):
    members, kept = closure_trace(start)
    assert members == frozenset(expect)
    assert kept == preserves
    # the preserved relations decide the closure
    assert members == {x for x in LETTERS
                       if all(letter_witness(x, rel) is None for rel in kept)}


def test_minimal_label_examples():
    assert minimal_label("") == "bottom"
    assert minimal_label(FULL) == "sym"
    assert minimal_label(frozenset("acefgh")) == "af"
    assert minimal_label(frozenset("bdeh")) == "bh"
    assert minimal_label(frozenset("abcde")) == "abcd"
    assert minimal_label(frozenset("eh")) == "h"


def test_minimal_label_rejects_open_sets():
    with pytest.raises(ValueError):
        minimal_label("bf")


def test_minimal_label_is_minimal():
    # no strictly smaller or lexically earlier subset regenerates the set
    for x in enumerate_lattice():
        if x.name in ("bottom", "sym"):
            continue
        k = len(x.name)
        for combo in combinations(sorted(x.members), k):
            label = "".join(combo)
            if label == x.name:
                break
            assert closure(combo) != x.members, (x.name, label)
        for smaller in range(1, k):
            for combo in combinations(sorted(x.members), smaller):
                assert closure(combo) != x.members, (x.name, combo)


def test_find_and_errors():
    assert find("bf").members == frozenset("bdf")
    # "ba" is not a label: the canonical spelling is "ab"
    for bad in ("zz", "", "ba"):
        with pytest.raises(ValueError, match="unknown group label"):
            find(bad)


def test_find_agrees_with_minimal_label():
    for x in enumerate_lattice():
        assert find(x.name) == x
        assert minimal_label(x.members) == x.name


def test_join_meet_examples():
    # join is the closure of a union; meet is the intersection, already closed
    m = {x.name: x.members for x in enumerate_lattice()}
    assert minimal_label(closure(m["a"] | m["j"])) == "aj"
    assert minimal_label(closure(m["b"] | m["d"])) == "bd"
    assert minimal_label(closure(m["c"] | m["i"])) == "ci"
    assert minimal_label(closure(m["f"] | m["b"])) == "bf"
    assert minimal_label(m["ac"] & m["e"]) == "e"
    assert minimal_label(m["af"] & m["bh"]) == "h"
    assert minimal_label(m["i"] & m["j"]) == "bottom"


def test_lattice_is_closed_under_join_and_meet():
    elements = enumerate_lattice()
    names = {x.name for x in elements}
    for x in elements:
        for y in elements:
            # minimal_label raises on a set that is not closed
            assert minimal_label(closure(x.members | y.members)) in names
            assert minimal_label(x.members & y.members) in names


def test_scramble_family_counts():
    elements = enumerate_lattice()
    with_i = [x.name for x in elements if "i" in x.members]
    with_j = [x.name for x in elements if "j" in x.members]
    assert sorted(with_i) == ["cdi", "ci", "di", "i", "sym"]
    assert sorted(with_j) == ["abj", "aj", "bj", "j", "sym"]


def test_closures_of_basic_letter_subsets():
    # closures of subsets of {a, b, c, d, i, j} hit 25 distinct sets
    hits = {closure(s) for s in _subsets("abcdij")}
    assert len(hits) == 25


def test_proper_closed_subsets_of_bf():
    target = find("bf").members
    inside = [x.name for x in enumerate_lattice()
              if x.members < target and x.members]
    assert sorted(inside) == ["b", "bd", "d", "f"]


def test_hasse_shape():
    edges = hasse()
    assert len(edges) == 86
    atoms = sorted(high for low, high in edges if low == "bottom")
    assert atoms == ["a", "b", "c", "d", "e", "f", "g"]
    below_top = sorted(low for low, high in edges if high == "sym")
    assert below_top == ["abf", "abj", "cdi"]


def test_hasse_edges_are_covers():
    members = [x.members for x in enumerate_lattice()]
    for low, high in hasse():
        a, b = find(low).members, find(high).members
        assert a < b
        assert not any(a < m < b for m in members)


def test_export_dot():
    text = export_dot()
    assert text == export_dot()  # deterministic
    lines = text.splitlines()
    assert lines[0] == "digraph lattice {"
    assert lines[-1] == "}"
    assert sum(1 for x in lines if "->" in x) == 86
    assert '  "bottom" -> "a";' in lines
    assert '  "abf" -> "sym";' in lines


def test_order_join_and_covers_follow_table_rows():
    rows = {row.label: row.bits for row in full_table().rows}

    def inside(x, y):
        # x's group lies in y's iff y's row keeps a subset of x's relations
        return all(kx or not ky for kx, ky in zip(rows[x], rows[y]))

    elements = enumerate_lattice()
    for x in elements:
        for y in elements:
            assert (x.members <= y.members) == inside(x.name, y.name), (x, y)
            both = tuple(kx and ky for kx, ky in zip(rows[x.name], rows[y.name]))
            join = minimal_label(closure(x.members | y.members))
            assert rows[join] == both, (x.name, y.name)
    labels = [x.name for x in elements]
    for low, high in hasse():
        assert low != high and inside(low, high)
        assert not any(inside(low, mid) and inside(mid, high)
                       for mid in labels if mid not in (low, high)), (low, high)
