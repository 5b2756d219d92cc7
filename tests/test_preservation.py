import pytest

from permsym import relations
from permsym.patterns import enumerate_patterns
from permsym.generators import GeneratorId, word_from_text
from permsym.lattice import LETTERS, closure, enumerate_lattice, minimal_label
from permsym.letters import (
    Witness, letter_moves, letter_witness, _move_tables, _space,
)
from permsym.preservation import (
    CellDiff, PreservationRow, find_witness,
    full_table, golden_table, load_golden, diff_golden,
)
from lattice_expectations import LABELS_BY_MASK, PROPER_LABELS
from witness_oracle import move_letter, move_steps, replay_fault, replay_move

# Golden rows for the three spot-checked groups, by relation name.
ROW_E = {"btw1", "sep1", "btw2", "sep2", "st",
         "r1", "r2", "r4", "r5", "r6", "r7", "r9"}
ROW_F = {"st", "up", "r2", "r3", "r4", "r7"}
ROW_A = {"lt1", "btw1", "cyc1", "sep1", "btw2", "sep2", "r2", "r4"}


def _names(bits):
    return {rel for rel, bit in zip(relations.RELATION_NAMES, bits) if bit}


def test_letter_rows_match_golden():
    _, golden = golden_table()
    for letter in LETTERS:
        bits = tuple(letter_witness(letter, rel) is None
                     for rel in relations.RELATION_NAMES)
        assert bits == golden[letter], letter


def test_letter_moves_cover_cuts():
    for n in range(6):
        cuts = range(n + 1)
        assert letter_moves("b", n) == ["t2@%d" % k for k in cuts]
        assert letter_moves("d", n) == ["t1@%d" % k for k in cuts]
        # every non-scramble move is a generator word in its canonical text
        for letter in "abcdefgh":
            for text in letter_moves(letter, n):
                canonical = ",".join(g.kind if g.cut is None else "%s@%d" % g
                                     for g in word_from_text(text))
                assert text == canonical, (letter, n, text)
    with pytest.raises(ValueError):
        letter_moves("z", 3)


@pytest.mark.parametrize("bad", ["", "ij", "A", "k", "z"])
def test_letters_are_checked_by_equality(bad):
    # one of the ten letters, not any substring of "abcdefghij"
    with pytest.raises(ValueError, match="unknown letter"):
        letter_witness(bad, "lt2")
    with pytest.raises(ValueError, match="unknown letter"):
        letter_moves(bad, 2)
    with pytest.raises(ValueError, match="unknown relation"):
        letter_witness("a", "nope")


@pytest.mark.parametrize("g,rel,expect", [
    (GeneratorId("revrev", None), "btw1", True),
    (GeneratorId("revrev", None), "lt1", False),
    (GeneratorId("sw", None), "up", True),
    (GeneratorId("sw", None), "dow", False),
])
def test_generator_preserves_examples(g, rel, expect):
    # a plain move's text is its kind
    assert (letter_witness(move_letter(g.kind), rel) is None) is expect


def _steps(letter, rel, n, before, after):
    """The scan's steps at size n that take rel's truth from before to after."""
    return (s for s in move_steps(letter_moves(letter, n), rel, n)
            if (s.before, s.after) == (before, after))


def test_backward_direction_agrees_for_involutions():
    for letter in "acef":  # rev2, rev1, revrev, sw
        for rel in relations.RELATION_NAMES:
            bwd = not any(_steps(letter, rel, 4, False, True))
            assert (letter_witness(letter, rel) is None) == bwd, (letter, rel)


def test_backward_direction_agrees_for_turn_family():
    # all cuts of t1 together form an inverse-closed family
    letter = "d"
    for rel in relations.RELATION_NAMES:
        bwd = not any(_steps(letter, rel, 4, False, True))
        assert (letter_witness(letter, rel) is None) == bwd, rel


def test_letter_preserves_is_local():
    # the scan at size = arity decides the cell at size arity + 1 as well
    for letter in LETTERS:
        for rel in relations.RELATION_NAMES:
            n = relations.arity(rel) + 1
            if letter in "ij":
                n = min(n, 4)
            assert (letter_witness(letter, rel) is None) == (
                not any(_steps(letter, rel, n, True, False))), (letter, rel)


def test_letter_moves_closed_under_inverses():
    # every move on every pattern is undone by some move of the same letter
    for letter in LETTERS:
        for n in range(1, 5):
            moves = letter_moves(letter, n)
            for p in enumerate_patterns(n):
                for text in moves:
                    image, mapping = replay_move(text, p)
                    undone = []
                    for back in moves:
                        q, step = replay_move(back, image)
                        undone.append(q == p and all(
                            step[mapping[x]] == x for x in range(n)))
                    assert any(undone), (letter, text, p)


@pytest.mark.parametrize("gens,label,marked", [
    (word_from_text("revrev"), "e", ROW_E),
    (word_from_text("sw"), "f", ROW_F),
    (word_from_text("rev2"), "a", ROW_A),
])
def test_group_row_spot_checks(gens, label, marked):
    assert minimal_label(closure({move_letter(g.kind) for g in gens})) == label
    table = full_table()
    [row] = [row for row in table.rows if row.label == label]
    assert _names(row.bits) == marked
    assert {rel for lab, rel in table.witnesses if lab == label} == (
        set(relations.RELATION_NAMES) - marked)


def test_full_table_shape():
    table = full_table()
    assert [row.label for row in table.rows] == LABELS_BY_MASK
    # every false cell, and only those, carries a witness
    assert set(table.witnesses) == {
        (row.label, rel) for row in table.rows
        for rel, bit in zip(relations.RELATION_NAMES, row.bits) if not bit}
    bits = {row.label: row.bits for row in table.rows}
    assert all(bits["bottom"])
    assert not any(bits["sym"])
    assert len(set(bits.values())) == 39


def test_rows_shrink_as_groups_grow():
    members = {x.name: x.members for x in enumerate_lattice()}
    bits = {row.label: row.bits for row in full_table().rows}
    for small in members:
        for big in members:
            if members[small] <= members[big]:
                for x, y in zip(bits[small], bits[big]):
                    assert x or not y, (small, big)


def test_witnesses_are_single_moves():
    # letter families are inverse-closed, so one move always suffices
    table = full_table()
    assert {len(w.moves) for w in table.witnesses.values()} == {1}


def test_find_witness_none_when_preserved():
    assert find_witness(frozenset("e"), "btw1") is None


def test_find_witness_checks_the_relation_without_members():
    with pytest.raises(ValueError, match="^unknown relation: 'zz'$"):
        find_witness(frozenset(), "zz")


def test_diff_golden_regression():
    # The computed table disagrees with the published one in exactly one
    # cell: the printed de row claims the quarter-turn variant survives
    # turning the first order, but t1@1 on pattern 132 breaks it.
    diffs = diff_golden(full_table().rows)
    assert diffs == [CellDiff("de", "r1", True, False)]
    assert replay_fault("de", "r1", full_table().witnesses[("de", "r1")]) is None


def test_diff_golden_empty_input():
    diffs = diff_golden([])
    assert len(diffs) == 37 * 20
    assert all(d.computed is None for d in diffs)


def test_diff_golden_injected_fault():
    rows = list(full_table().rows)
    bits = list(rows[1].bits)  # row a
    k = relations.RELATION_NAMES.index("lt1")
    bits[k] = not bits[k]
    rows[1] = PreservationRow(rows[1].label, tuple(bits))
    diffs = diff_golden(rows)
    assert CellDiff("a", "lt1", True, False) in diffs
    assert len(diffs) == 2  # the injected fault plus the standing difference


def test_golden_table_contents():
    order, table = golden_table()
    assert list(order) == PROPER_LABELS
    assert len(set(table.values())) == 37


def test_load_golden_round_trip(tmp_path):
    header = "label," + ",".join(relations.RELATION_NAMES)
    rows = ["x," + ",".join("1" if k == 0 else "0" for k in range(20))]
    path = tmp_path / "alt.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    order, table = load_golden(str(path))
    assert order == ("x",)
    assert table["x"][0] is True and not any(table["x"][1:])


@pytest.mark.parametrize("body", [
    "label,oops\nx,1",
    None,  # wrong field count, built below
    "dup",
    "bits",
])
def test_load_golden_rejects(tmp_path, body):
    header = "label," + ",".join(relations.RELATION_NAMES)
    good = "x," + ",".join(["0"] * 20)
    if body == "dup":
        text = "\n".join([header, good, good])
    elif body == "bits":
        text = "\n".join([header, "x," + ",".join(["2"] + ["0"] * 19)])
    elif body is None:
        text = "\n".join([header, "x,0,1"])
    else:
        text = body
    path = tmp_path / "bad.csv"
    path.write_text(text + "\n")
    with pytest.raises(ValueError):
        load_golden(str(path))


def test_scramble_matches_replayed_move():
    # every letter's move table, scrambles included, gives each move's
    # image and mapping on the k-types of the scan
    for n in range(5):
        pats, index, _, _ = _space(n)
        for letter in LETTERS:
            for text, (images, maps) in _move_tables(letter, n):
                for p in pats:
                    k = index[p.ranks]
                    assert replay_move(text, p) \
                        == (pats[images[k]], pats[maps[k]].ranks), (text, p)


def test_letter_witness_matches_move_by_move_scan():
    # every cell of the 10 x 20 matrix, against the first breaking step
    for letter in LETTERS:
        for rel in relations.RELATION_NAMES:
            want = next((Witness(rel, s.pattern, s.points, (s.move,), s.image,
                                 s.image_points) for s in _steps(
                letter, rel, relations.arity(rel), True, False)), None)
            assert letter_witness(letter, rel) == want, (letter, rel)


def test_letter_witness_replays_through_its_move():
    for letter in LETTERS:
        for rel in relations.RELATION_NAMES:
            w = letter_witness(letter, rel)
            if w is not None:
                assert w.moves[0] in letter_moves(letter, w.pattern.n), (letter, rel)
                assert replay_fault(letter, rel, w) is None, (letter, rel)
