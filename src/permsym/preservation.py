"""Preservation checks: which symmetry groups keep which relations invariant.

A group preserves a relation when every element maps true tuples to true
tuples.  Each of the ten letters contributes a family of concrete moves;
a closed letter set preserves a relation exactly when each member letter
does, so rows of the table are computed letter by letter and combined.

One scan per letter and relation, at size = arity, decides the cell at
every size, and its first hit is the witness:

- One move suffices.  Every letter's move family is closed under
  inverses, so each element of the group it generates is a word of its
  moves.  Along a violating word the relation goes from true to false
  at some single step, so that step alone is a witness.
- Size = arity suffices.  Every relation is quantifier-free on its
  tuple.  Each move restricts to the tuple's induced sub-pattern as a
  move of the same letter: a turn at cut k becomes a turn at cut m,
  where m is the number of tuple points below k; reversals, the
  exchange and scrambles restrict to themselves.  So a violation at any
  size projects to one at size = arity.

Positive cells therefore hold at every size, and every negative cell
carries a one-move witness that replays with plain moves.
"""

import csv
from collections import namedtuple
from functools import lru_cache
from importlib import resources
from itertools import permutations

from . import relations
from .patterns import enumerate_patterns, pattern_to_text
from .generators import (
    GeneratorId, REV1, REV2, REVREV, SW,
    turn_first, turn_second, apply_word, word_to_text,
)
from .lattice import LETTERS, closure, minimal_label, enumerate_lattice

PreservationRow = namedtuple("PreservationRow", ["label", "bits"])
RowResult = namedtuple("RowResult", ["row", "witnesses"])
TableResult = namedtuple("TableResult", ["rows", "witnesses"])
CellDiff = namedtuple("CellDiff", ["label", "relation", "golden", "computed"])
# A replayable counterexample: the move sends a true tuple to a false one.
Witness = namedtuple(
    "Witness",
    ["relation", "pattern", "points", "moves", "image_pattern", "image_points"])
Move = namedtuple("Move", ["text", "func"])

# Which generator kind realizes which single-map letter.
KIND_LETTER = {"rev2": "a", "t2": "b", "rev1": "c", "t1": "d",
               "revrev": "e", "sw": "f"}
SCRAMBLE_LETTERS = "ij"


def letter_words(letter, n):
    """The generator words realizing one letter's moves at size n."""
    if letter == "a":
        return [[REV2]]
    if letter == "c":
        return [[REV1]]
    if letter == "e":
        return [[REVREV]]
    if letter == "f":
        return [[SW]]
    if letter == "g":
        return [[REVREV, SW]]
    if letter == "h":
        # The two order-4 rotations; inverses of each other.
        return [[REV2, SW], [REV1, SW]]
    if letter == "b":
        return [[turn_second(k)] for k in range(n + 1)]
    if letter == "d":
        return [[turn_first(k)] for k in range(n + 1)]
    raise ValueError("letter %r has no word moves" % (letter,))


def _scramble_apply(letter, target, p):
    """Move keeping one order and freely rewriting the other to reach target."""
    if target.n != p.n:
        raise ValueError("scramble target size mismatch")
    if letter == "i":
        return target, tuple(range(p.n))
    inv = [0] * target.n
    for idx, v in enumerate(target.ranks):
        inv[v] = idx
    return target, tuple(inv[v] for v in p.ranks)


def letter_moves(letter, n):
    """All moves of one letter at size n, deterministic order."""
    if letter in SCRAMBLE_LETTERS:
        return [
            Move("%s@%s" % (letter, pattern_to_text(q)),
                 lambda p, q=q, letter=letter: _scramble_apply(letter, q, p))
            for q in enumerate_patterns(n)
        ]
    return [
        Move(word_to_text(w), lambda p, w=w: _apply(w, p))
        for w in letter_words(letter, n)
    ]


def _apply(word, p):
    res = apply_word(word, p)
    return res.pattern, res.mapping


@lru_cache(maxsize=None)
def letter_witness(letter, relation):
    """First move of the letter breaking the relation, as a Witness, or None.

    Scans the letter's moves at size = arity, then patterns in
    lexicographic order, then tuples, so the hit is reproducible.  None
    means the letter preserves the relation at every size.
    """
    if letter not in LETTERS:
        raise ValueError("unknown letter: %r" % (letter,))
    f = relations.evaluator(relation)
    n = relations.arity(relation)
    pats = list(enumerate_patterns(n))
    tuples = list(permutations(range(n)))
    for move in letter_moves(letter, n):
        for p in pats:
            image, mapping = move.func(p)
            pr, ir = p.ranks, image.ranks
            for t in tuples:
                if f(pr, t):
                    it = tuple(mapping[x] for x in t)
                    if not f(ir, it):
                        return Witness(relation, p, t, (move.text,), image, it)
    return None


def letter_preserves(letter, relation):
    """True iff every move of the letter preserves the relation."""
    return letter_witness(letter, relation) is None


def letter_matrix():
    """(letter, relation) -> preserved, for all 10 letters and 20 relations."""
    return {
        (letter, rel): letter_preserves(letter, rel)
        for letter in LETTERS
        for rel in relations.RELATION_NAMES
    }


def normalize_generators(gens):
    """Map generator kinds or letters to the closed letter set they generate."""
    found = set()
    for g in gens:
        token = g.kind if isinstance(g, GeneratorId) else g
        if token in KIND_LETTER:
            found.add(KIND_LETTER[token])
        elif token in LETTERS:
            found.add(token)
        else:
            raise ValueError("unknown generator or letter: %r" % (token,))
    return closure(found)


def find_witness(members, relation):
    """Witness of the first member letter, in sorted order, that has one.

    None when every member letter, and so the group, preserves the relation.
    """
    for letter in sorted(members):
        w = letter_witness(letter, relation)
        if w is not None:
            return w
    return None


def _row(members):
    """Bits of one closed letter set and the witnesses of its false cells."""
    found = {rel: find_witness(members, rel) for rel in relations.RELATION_NAMES}
    bits = tuple(w is None for w in found.values())
    return bits, {rel: w for rel, w in found.items() if w is not None}


def group_row(gens):
    """Preservation row of the closed group generated by gens, with witnesses."""
    members = normalize_generators(gens)
    bits, witnesses = _row(members)
    return RowResult(PreservationRow(minimal_label(members), bits), witnesses)


def full_table():
    """Rows for all 39 lattice elements, with witnesses for false cells."""
    rows = []
    witnesses = {}
    for element in enumerate_lattice():
        bits, found = _row(element.members)
        rows.append(PreservationRow(element.name, bits))
        for rel, w in found.items():
            witnesses[(element.name, rel)] = w
    return TableResult(tuple(rows), witnesses)


@lru_cache(maxsize=1)
def golden_table():
    """The published 37-row table: (ordered labels, label -> bit tuple)."""
    text = resources.files("permsym.data").joinpath("golden_table.csv").read_text()
    return _parse_golden(text)


def _parse_golden(text):
    reader = csv.reader(text.strip().splitlines())
    header = next(reader)
    if tuple(header) != ("label",) + relations.RELATION_NAMES:
        raise ValueError("golden table header mismatch: %r" % (header,))
    order = []
    table = {}
    for row in reader:
        if len(row) != 21:
            raise ValueError("golden row needs 21 fields: %r" % (row,))
        label, bits = row[0], row[1:]
        if label in table:
            raise ValueError("duplicate golden label: %r" % (label,))
        if any(b not in ("0", "1") for b in bits):
            raise ValueError("golden bits must be 0/1: %r" % (row,))
        order.append(label)
        table[label] = tuple(b == "1" for b in bits)
    return tuple(order), table


def load_golden(path):
    """Golden rows from an alternative CSV file (same shape as the resource)."""
    with open(path) as fh:
        return _parse_golden(fh.read())


def diff_golden(computed, golden=None):
    """Cells where computed rows disagree with the golden table.

    Rows absent from `computed` report all 20 cells with computed=None.
    """
    order, table = golden if golden is not None else golden_table()
    by_label = {row.label: row.bits for row in computed}
    diffs = []
    for label in order:
        bits = by_label.get(label)
        for k, rel in enumerate(relations.RELATION_NAMES):
            want = table[label][k]
            got = None if bits is None else bits[k]
            if got != want:
                diffs.append(CellDiff(label, rel, want, got))
    return diffs
