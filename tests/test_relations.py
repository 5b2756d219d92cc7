from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsym.generators import GeneratorId, apply
from permsym.patterns import (
    Pattern, T1, T2, T3, enumerate_patterns, pattern_from_text, pair_type)
from permsym.preservation import golden_table
from permsym.relations import RELATION_NAMES, arity, evaluate

perms = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.permutations(list(range(n))))


def test_relation_inventory():
    assert len(RELATION_NAMES) == 20
    assert RELATION_NAMES[0] == "lt1"
    assert RELATION_NAMES[-1] == "r9"
    assert sorted(map(arity, RELATION_NAMES)) == sorted([2] * 5 + [3] * 11 + [4] * 4)


def test_arity_rejects_unknown():
    with pytest.raises(ValueError):
        arity("lt3")


def test_evaluate_validates():
    p = pattern_from_text("123")
    with pytest.raises(ValueError):
        evaluate("lt1", p, (0,))
    with pytest.raises(ValueError):
        evaluate("lt1", p, (0, 0))
    with pytest.raises(ValueError):
        evaluate("lt1", p, (0, 3))
    with pytest.raises(ValueError):
        evaluate("nope", p, (0, 1))


# Frozen point cases.  Tuples are 0-based point indices.
CASES = [
    ("lt1", "21", (0, 1), True),
    ("lt2", "21", (0, 1), False),
    ("btw1", "123", (0, 1, 2), True),
    ("btw1", "123", (1, 0, 2), False),
    ("btw2", "213", (1, 0, 2), True),
    ("cyc1", "123", (1, 2, 0), True),
    ("cyc1", "123", (1, 0, 2), False),
    ("cyc2", "231", (0, 1, 2), True),
    ("sep1", "1234", (0, 2, 1, 3), True),
    ("sep1", "1234", (0, 1, 2, 3), False),
    ("st", "12", (0, 1), True),
    ("st", "21", (0, 1), False),
    ("st", "21", (1, 0), False),
    ("up", "12", (0, 1), True),
    ("up", "12", (1, 0), False),
    ("dow", "21", (0, 1), True),
    ("r1", "132", (0, 1, 2), True),
    ("r1", "321", (2, 0, 1), False),
    ("r2", "213", (0, 1, 2), True),
    ("r5", "123", (0, 1, 2), True),
    ("r5", "321", (0, 1, 2), False),
    ("r6", "123", (0, 1, 2), True),
    ("r9", "1234", (0, 1, 2, 3), False),
]


@pytest.mark.parametrize("name,text,t,expected", CASES)
def test_point_cases(name, text, t, expected):
    assert evaluate(name, pattern_from_text(text), t) is expected


@given(perms)
def test_symmetries(ranks):
    p = Pattern(ranks)
    pts = list(permutations(range(p.n), 3))
    for t in pts[:30]:
        x, y, z = t
        assert evaluate("btw1", p, (x, y, z)) == evaluate("btw1", p, (z, y, x))
        assert evaluate("btw2", p, (x, y, z)) == evaluate("btw2", p, (z, y, x))
        assert evaluate("cyc1", p, (x, y, z)) == evaluate("cyc1", p, (y, z, x))
        assert evaluate("cyc2", p, (x, y, z)) == evaluate("cyc2", p, (z, x, y))
    for x in range(p.n):
        for y in range(p.n):
            if x != y:
                assert evaluate("st", p, (x, y)) == evaluate("st", p, (y, x))


@given(perms)
def test_up_dow_match_pair_types(ranks):
    p = Pattern(ranks)
    for x in range(p.n):
        for y in range(p.n):
            if x == y:
                continue
            assert evaluate("up", p, (x, y)) == (pair_type(p, x, y) == T1)
            assert evaluate("dow", p, (x, y)) == (pair_type(p, x, y) == T2)
            assert evaluate("st", p, (x, y)) == (pair_type(p, x, y) in (T1, T3))


def _cyclically_between(a, m, b):
    # m strictly inside the arc from a to b, walking upward with wraparound.
    if a < b:
        return a < m < b
    return m > a or m < b


def _chords_cross(w, x, y, z):
    return _cyclically_between(w, y, x) != _cyclically_between(w, z, x)


def test_separation_matches_crossing_chords():
    # Independent circle model: sep(w,x,y,z) holds iff chords wx and yz cross.
    for t in permutations(range(5), 4):
        p = Pattern(tuple(range(5)))
        assert evaluate("sep1", p, t) == _chords_cross(*t)


@given(perms)
def test_disjunction_relations(ranks):
    p = Pattern(ranks)
    for t in permutations(range(p.n), 3):
        b = evaluate("btw1", p, t) or evaluate("btw2", p, t)
        assert evaluate("r2", p, t) == b
        c1, c2 = evaluate("cyc1", p, t), evaluate("cyc2", p, t)
        assert evaluate("r3", p, t) == (c1 or c2)
        assert evaluate("r8", p, t) == (c1 and not c2)
    for t in permutations(range(p.n), 4):
        assert evaluate("r4", p, t) == (
            evaluate("sep1", p, t) or evaluate("sep2", p, t))


# r9's four allowed steps, as (cyc1, cyc2) on (x,y,w) then on (y,w,z).
R9_STEPS = {((True, True), (True, False)), ((False, True), (True, True)),
            ((False, False), (False, True)), ((True, False), (False, False))}


@given(perms)
def test_chain_relations(ranks):
    p = Pattern(ranks)
    r = p.ranks
    up = lambda a, b: evaluate("up", p, (a, b))
    dow = lambda a, b: evaluate("dow", p, (a, b))
    cyc = lambda s: (evaluate("cyc1", p, s), evaluate("cyc2", p, s))
    for t in permutations(range(p.n), 3):
        x, y, z = t
        want1 = ((up(x, y) and dow(y, z) and up(x, z))
                 or (dow(x, y) and up(z, y) and dow(x, z))
                 or (up(y, x) and dow(z, y) and up(z, x))
                 or (dow(y, x) and up(y, z) and dow(z, x)))
        assert evaluate("r1", p, t) == want1
        want5 = ((r[x] < r[y] < r[z] and evaluate("cyc1", p, t))
                 or (r[z] < r[y] < r[x] and evaluate("cyc1", p, (z, y, x))))
        assert evaluate("r5", p, t) == want5
        want6 = ((x < y < z and evaluate("cyc2", p, t))
                 or (z < y < x and evaluate("cyc2", p, (z, y, x))))
        assert evaluate("r6", p, t) == want6
        want7 = ((evaluate("cyc1", p, t) and evaluate("cyc2", p, t))
                 or (evaluate("cyc1", p, (z, y, x))
                     and evaluate("cyc2", p, (z, y, x))))
        assert evaluate("r7", p, t) == want7
    for t in permutations(range(p.n), 4):
        x, y, w, z = t
        want9 = (cyc((x, y, w)), cyc((y, w, z))) in R9_STEPS
        assert evaluate("r9", p, t) == want9


# Exchanging the orders turns each first-order relation into its
# second-order twin, and r5 into r6; st, up, r2, r3, r4 and r7 stay.
EXCHANGE_TWINS = {"lt1": "lt2", "btw1": "btw2", "cyc1": "cyc2", "sep1": "sep2", "r5": "r6"}
EXCHANGE_TWINS.update({b: a for a, b in EXCHANGE_TWINS.items()})
EXCHANGE_TWINS.update((name, name) for name in ("st", "up", "r2", "r3", "r4", "r7"))


def test_exchange_maps_each_relation_to_its_twin():
    # rel(p, t) == twin(sw p, t mapped) on every tuple of every pattern from
    # size arity to 5; dow, r1, r8 and r9 have no twin among the 20.
    truth, exchanged = {}, {}
    for name in RELATION_NAMES:
        k, cells, moved = arity(name), [], []
        for n in range(k, 6):
            for p in enumerate_patterns(n):
                q, mapping = apply(GeneratorId("sw", None), p)
                for t in permutations(range(n), k):
                    cells.append(evaluate(name, p, t))
                    moved.append(evaluate(name, q, tuple(mapping[x] for x in t)))
        truth[name], exchanged[name] = cells, moved
    twins = {a: [b for b in RELATION_NAMES if arity(b) == arity(a)
                 and exchanged[b] == truth[a]] for a in RELATION_NAMES}
    assert twins == {a: [EXCHANGE_TWINS[a]] if a in EXCHANGE_TWINS else []
                     for a in RELATION_NAMES}
    # the fixed relations are exactly what the published row f preserves
    fixed = {a for a, b in EXCHANGE_TWINS.items() if a == b}
    _, golden = golden_table()
    assert fixed == {a for a, bit in zip(RELATION_NAMES, golden["f"]) if bit}
