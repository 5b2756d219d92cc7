import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsym.patterns import (
    Pattern, PAIR_TYPES, T1, T2, T3, T4,
    pattern_from_text, pattern_to_text, from_points, pair_type,
    sub_pattern, copies_of, iter_copies, enumerate_patterns,
)
from permsym.letters import letter_witness

perms = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(list(range(n))))


def test_parse_digits():
    assert pattern_from_text("231").ranks == (1, 2, 0)
    assert pattern_from_text("1").ranks == (0,)
    assert pattern_from_text("").ranks == ()


def test_parse_commas():
    assert pattern_from_text("2,3,1").ranks == (1, 2, 0)
    assert pattern_from_text("10,9,8,7,6,5,4,3,2,1").n == 10


@pytest.mark.parametrize("bad", [
    "0", "22", "13", "11", "1,3", "2,2", "a", "1,", "132 4",
    # int() reads these, but only ASCII digits are pattern text
    "1_0,1,2,3,4,5,6,7,8,9", "+2,1", "\u0662\u0661", "\uff11\uff12"])
def test_parse_rejects(bad):
    # out-of-range or repeated ranks are reported as the 1-based text
    with pytest.raises(ValueError) as info:
        pattern_from_text(bad)
    assert str(info.value) == "bad pattern text: %r" % (bad,)


@given(st.integers(0, 12).flatmap(lambda n: st.permutations(list(range(n)))))
def test_text_round_trip(ranks):
    p = Pattern(ranks)
    text = pattern_to_text(p)
    assert ("," in text) == (p.n > 9)
    assert pattern_from_text(text) == p


@given(perms, perms)
def test_hash_agrees_with_eq(a, b):
    p, q, p_again = Pattern(a), Pattern(b), Pattern(list(a))
    assert (p == q) == (tuple(a) == tuple(b))
    assert p == p_again and hash(p) == hash(p_again)
    assert len({p, q, p_again}) == len({tuple(a), tuple(b)})


def test_pattern_validates():
    with pytest.raises(ValueError):
        Pattern((0, 2))
    with pytest.raises(ValueError):
        Pattern((0, 0))
    # the namedtuple's own rebuilders go through the constructor
    with pytest.raises(ValueError):
        Pattern((0, 1))._replace(ranks=(0, 0))
    with pytest.raises(ValueError):
        Pattern._make([(1, 1)])


def test_pattern_immutable():
    p = Pattern((0, 1))
    with pytest.raises(AttributeError):
        p.ranks = (1, 0)


def test_pattern_survives_copy_and_pickle():
    # copy and pickle rebuild a Pattern through its validating constructor
    for value in (pattern_from_text("231"), letter_witness("d", "r1")):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_from_points():
    # x-sorted: (0,1),(2,2),(5,0); y-ranks along x: 1,2,0
    assert pattern_to_text(from_points([(0, 1), (2, 2), (5, 0)])) == "231"
    assert pattern_to_text(from_points([(1.5, -3), (0.5, 4)])) == "21"
    assert from_points([]).n == 0


def test_from_points_rejects_collision():
    with pytest.raises(ValueError):
        from_points([(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        from_points([(0, 1), (1, 1)])


@given(perms)
def test_from_points_inverts_realization(ranks):
    p = Pattern(ranks)
    assert from_points([(i, p.ranks[i]) for i in range(p.n)]) == p


# ids keep the case names from when the types were the numbers 1-4
PAIR_CASES = [
    pytest.param("12", 0, 1, T1, id="12-0-1-1"),
    pytest.param("21", 0, 1, T2, id="21-0-1-2"),
    pytest.param("12", 1, 0, T3, id="12-1-0-3"),
    pytest.param("21", 1, 0, T4, id="21-1-0-4"),
]


def test_pair_types_are_their_cli_names():
    # check-canonical prints the types as they are and sorts them in this order
    assert PAIR_TYPES == ("t1", "t2", "t3", "t4")


@pytest.mark.parametrize("text,i,j,expected", PAIR_CASES)
def test_pair_type(text, i, j, expected):
    assert pair_type(pattern_from_text(text), i, j) == expected


def test_pair_type_rejects():
    p = pattern_from_text("12")
    with pytest.raises(ValueError):
        pair_type(p, 0, 0)
    with pytest.raises(ValueError):
        pair_type(p, 0, 2)


@given(perms)
def test_pair_type_reversal(ranks):
    p = Pattern(ranks)
    rev = {T1: T3, T2: T4, T3: T1, T4: T2}
    for i in range(p.n):
        for j in range(p.n):
            if i != j:
                assert pair_type(p, j, i) == rev[pair_type(p, i, j)]


def test_sub_pattern():
    p = pattern_from_text("35142")
    assert pattern_to_text(sub_pattern(p, [0, 2, 4])) == "312"
    assert pattern_to_text(sub_pattern(p, [1, 3])) == "21"
    assert sub_pattern(p, []).n == 0


def test_copies_of():
    host = pattern_from_text("123")
    up = pattern_from_text("12")
    assert copies_of(host, up) == [(0, 1), (0, 2), (1, 2)]
    assert copies_of(pattern_from_text("321"), up) == []
    assert copies_of(host, host) == [(0, 1, 2)]


def copies_by_definition(host, small):
    """copies_of as its docstring defines it, one sub_pattern per subset."""
    return [s for s in combinations(range(host.n), small.n)
            if sub_pattern(host, s) == small]


def test_copies_of_matches_sub_pattern_definition():
    # small patterns of size 0-3, some larger than the host
    smalls = [q for k in range(4) for q in enumerate_patterns(k)]
    for n in range(7):
        for host in enumerate_patterns(n):
            for small in smalls:
                assert copies_of(host, small) == copies_by_definition(host, small), \
                    (host, small)
                assert list(iter_copies(host, small)) == copies_of(host, small)


def test_enumerate_patterns():
    pats = list(enumerate_patterns(3))
    assert len(pats) == 6
    assert pattern_to_text(pats[0]) == "123"
    assert pattern_to_text(pats[-1]) == "321"
    assert [pattern_to_text(p) for p in enumerate_patterns(0)] == [""]
    with pytest.raises(ValueError):
        list(enumerate_patterns(-1))

