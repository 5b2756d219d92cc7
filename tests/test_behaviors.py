from itertools import product

import pytest

from permsym.patterns import T1, T2, T3, T4
from permsym.generators import REV1, REV2, REVREV, SW, turn_first
from permsym.behaviors import (
    Behavior, NAMED_BEHAVIORS, NAMED_ORDER, IDENTITY,
    behavior_of_word, extend, compose, classify,
    named_group_table, generated_subgroup, subgroups,
)

# The eight invertible behaviors, frozen.
EXPECTED_NAMED = {
    "id": (T1, T2),
    "id/rev": (T2, T1),
    "rev/id": (T4, T3),
    "rev/rev": (T3, T4),
    "sw": (T1, T4),
    "sw.rev/rev": (T3, T2),
    "sw.id/rev": (T4, T1),
    "sw.rev/id": (T2, T3),
}

# Word realizing each named behavior.
REALIZING_WORDS = {
    "id": [],
    "id/rev": [REV2],
    "rev/id": [REV1],
    "rev/rev": [REVREV],
    "sw": [SW],
    "sw.rev/rev": [REVREV, SW],
    "sw.id/rev": [REV2, SW],
    "sw.rev/id": [REV1, SW],
}


def test_named_table_frozen():
    assert {k: tuple(v) for k, v in NAMED_BEHAVIORS.items()} == EXPECTED_NAMED


@pytest.mark.parametrize("name", sorted(REALIZING_WORDS))
def test_words_realize_named_behaviors(name):
    assert behavior_of_word(REALIZING_WORDS[name]) == NAMED_BEHAVIORS[name]


def test_behavior_of_word_rejects_turns():
    with pytest.raises(ValueError):
        behavior_of_word([turn_first(1)])
    with pytest.raises(ValueError):
        behavior_of_word([SW, turn_first(0)])


def test_extend():
    act = extend(NAMED_BEHAVIORS["rev/id"])
    assert act == {T1: T4, T2: T3, T3: T2, T4: T1}
    act = extend(Behavior(T1, T1))
    assert act == {T1: T1, T2: T1, T3: T3, T4: T3}


def test_compose_examples():
    idrev, revid = NAMED_BEHAVIORS["id/rev"], NAMED_BEHAVIORS["rev/id"]
    assert compose(idrev, revid) == NAMED_BEHAVIORS["rev/rev"]
    assert compose(NAMED_BEHAVIORS["sw"], NAMED_BEHAVIORS["sw"]) == IDENTITY
    rot = NAMED_BEHAVIORS["sw.id/rev"]
    assert compose(rot, rot) == NAMED_BEHAVIORS["rev/rev"]
    assert compose(compose(rot, rot), rot) == NAMED_BEHAVIORS["sw.rev/id"]


def test_compose_rejects_collapsing():
    with pytest.raises(ValueError):
        compose(Behavior(T1, T1), IDENTITY)
    with pytest.raises(ValueError):
        compose(IDENTITY, Behavior(T3, T1))


def test_word_homomorphism():
    # behavior of concatenation = composition, all turn-free words, length <= 4
    gens = [REV1, REV2, REVREV, SW]
    words = [[]]
    for k in range(1, 5):
        words.extend(list(w) for w in product(gens, repeat=k))
    for u in words:
        for v in (words[idx] for idx in range(0, len(words), 7)):
            assert behavior_of_word(u + v) == compose(
                behavior_of_word(u), behavior_of_word(v))


def test_classify_census():
    counts = {"named": 0, (1, "preserve"): 0, (1, "reverse"): 0,
              (2, "preserve"): 0, (2, "reverse"): 0}
    for b in (Behavior(x, y) for x in (T1, T2, T3, T4) for y in (T1, T2, T3, T4)):
        bc = classify(b)
        if bc.kind == "named":
            counts["named"] += 1
        else:
            counts[(bc.order, bc.sense)] += 1
    assert counts == {"named": 8, (1, "preserve"): 2, (1, "reverse"): 2,
                      (2, "preserve"): 2, (2, "reverse"): 2}


def test_classify_examples():
    assert classify(Behavior(T1, T2)) == ("named", "id", None, None)
    assert classify(Behavior(T1, T1)) == ("diagonal", None, 1, "preserve")
    assert classify(Behavior(T1, T3)) == ("diagonal", None, 2, "preserve")
    assert classify(Behavior(T2, T4)) == ("diagonal", None, 2, "reverse")


def test_group_axioms():
    table = named_group_table()
    names = set(NAMED_ORDER)
    assert set(table.values()) <= names
    for x in names:
        assert table[("id", x)] == x
        assert table[(x, "id")] == x
        assert any(table[(x, y)] == "id" for y in names)
    # associativity
    for x, y, z in product(NAMED_ORDER, repeat=3):
        assert table[(table[(x, y)], z)] == table[(x, table[(y, z)])]


def test_subgroup_inventory():
    subs = subgroups()
    assert len(subs) == 10
    assert generated_subgroup({"sw.id/rev"}) == frozenset(
        {"id", "sw.id/rev", "rev/rev", "sw.rev/id"})
    assert frozenset({"id"}) in subs
    assert frozenset(NAMED_ORDER) in subs
    by_size = {}
    for s in subs:
        by_size[len(s)] = by_size.get(len(s), 0) + 1
    assert by_size == {1: 1, 2: 5, 4: 3, 8: 1}
