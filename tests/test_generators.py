from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsym.patterns import Pattern, pattern_from_text, pattern_to_text, from_points
from permsym.generators import (
    GeneratorId, TURN_KINDS,
    apply, apply_word, generator_from_text, word_from_text,
)

PLAIN_MOVES = word_from_text("rev1,rev2,revrev,sw")

perms = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.permutations(list(range(n))))

# Frozen images of "231" under each plain move and two turns.
MOVE_IMAGES = {
    "rev1": "132",
    "rev2": "213",
    "revrev": "312",
    "sw": "312",
    "t1@1": "312",
    "t2@2": "312",
    "t1@0": "231",
    "t2@3": "231",
}


@pytest.mark.parametrize("text,expected", sorted(MOVE_IMAGES.items()))
def test_move_images(text, expected):
    p = pattern_from_text("231")
    result = apply(generator_from_text(text), p)
    assert pattern_to_text(result.pattern) == expected


def test_mappings():
    p = pattern_from_text("231")
    assert apply(GeneratorId("rev1", None), p).mapping == (2, 1, 0)
    assert apply(GeneratorId("rev2", None), p).mapping == (0, 1, 2)
    assert apply(GeneratorId("sw", None), p).mapping == (1, 2, 0)
    assert apply(GeneratorId("t1", 1), p).mapping == (2, 0, 1)
    assert apply(GeneratorId("t2", 2), p).mapping == (0, 1, 2)


# Geometric oracle: each plain move is a coordinate transformation of any
# point realization of the pattern.
COORD_MAPS = {
    "rev1": lambda x, y: (-x, y),
    "rev2": lambda x, y: (x, -y),
    "revrev": lambda x, y: (-x, -y),
    "sw": lambda x, y: (y, x),
}


@given(perms)
def test_plain_moves_match_coordinate_maps(ranks):
    p = Pattern(ranks)
    coords = [(i, p.ranks[i]) for i in range(p.n)]
    for kind, coord_map in COORD_MAPS.items():
        moved = from_points([coord_map(x, y) for x, y in coords])
        assert apply(GeneratorId(kind, None), p).pattern == moved


@given(perms, st.integers(min_value=0, max_value=5))
def test_turn_blocks(ranks, k):
    # The k first-order-lowest points become the highest, blocks kept in order.
    p = Pattern(ranks)
    n = p.n
    k = min(k, n)
    mapping = apply(GeneratorId("t1", k), p).mapping
    for i in range(n):
        for j in range(i + 1, n):
            same_block = (i < k) == (j < k)
            assert (mapping[i] < mapping[j]) == same_block


def test_apply_word_chains_mappings():
    p = pattern_from_text("231")
    step1 = apply(GeneratorId("sw", None), p)
    step2 = apply(GeneratorId("rev1", None), step1.pattern)
    combined = apply_word(word_from_text("sw,rev1"), p)
    assert combined.pattern == step2.pattern
    assert combined.mapping == tuple(step2.mapping[m] for m in step1.mapping)
    empty = apply_word([], p)
    assert empty.pattern == p and empty.mapping == (0, 1, 2)


@given(perms)
def test_inverses_cancel(ranks):
    p = Pattern(ranks)
    n = p.n
    # A plain move undoes itself; t1@k is undone by t1@(n-k), t2 alike.
    pairs = [(g, g) for g in PLAIN_MOVES]
    pairs += [(GeneratorId(kind, k), GeneratorId(kind, n - k))
              for kind in TURN_KINDS for k in range(n + 1)]
    for g, back in pairs:
        roundtrip = apply_word([g, back], p)
        assert roundtrip.pattern == p
        assert roundtrip.mapping == tuple(range(n))


def test_turn_edge_cuts_are_identity():
    for text in ["12345", "21", "4231"]:
        p = pattern_from_text(text)
        for g in (GeneratorId(kind, k) for kind in TURN_KINDS for k in (0, p.n)):
            assert apply(g, p).pattern == p


def test_cut_validation():
    p = pattern_from_text("12")
    with pytest.raises(ValueError):
        apply(GeneratorId("t1", 3), p)
    with pytest.raises(ValueError):
        apply(GeneratorId("t1", -1), p)


def test_word_text_round_trip():
    assert word_from_text("sw,rev2,t1@2,t2@0") == [
        GeneratorId("sw", None), GeneratorId("rev2", None),
        GeneratorId("t1", 2), GeneratorId("t2", 0)]
    assert word_from_text("") == []
    assert generator_from_text("revrev") == GeneratorId("revrev", None)


@pytest.mark.parametrize("bad", [
    "bogus", "t1", "t1@", "t1@-1", "t3@1", "rev",
    # int() reads these, but only ASCII digits are a cut
    "t1@1_0", "t1@+2", "t1@-0", "t1@ 2", "t2@\u0662", "t1@\uff12"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        generator_from_text(bad)


def test_size_five_exhaustive_involutions():
    # Plain reversal moves and sw square to the identity on every pattern.
    for ranks in permutations(range(5)):
        p = Pattern(ranks)
        for g in PLAIN_MOVES:
            twice = apply_word([g, g], p)
            assert twice.pattern == p
            assert twice.mapping == (0, 1, 2, 3, 4)
