"""The ten basic symmetry letters, their moves, and the one-move scan.

Letters name the basic symmetry families:

  a  reverse the second order          b  turn the second order
  c  reverse the first order           d  turn the first order
  e  reverse both orders               f  exchange the orders
  g  exchange composed with e          h  the order-4 exchange rotation
  i  arbitrary second-order scramble (first order kept)
  j  arbitrary first-order scramble (second order kept)

A letter preserves a relation when none of its moves sends a tuple on
which the relation holds to one on which it fails.  One scan per letter
and relation, at size = arity, decides this at every size, and its
first hit is the witness:

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
"""

from collections import namedtuple
from functools import lru_cache
from itertools import permutations
from operator import itemgetter

from . import relations
from .patterns import enumerate_patterns, pattern_to_text
from .generators import (
    REV1, REV2, REVREV, SW, turn_first, turn_second, apply_word, word_to_text,
)

LETTERS = "abcdefghij"
SCRAMBLE_LETTERS = "ij"

# A replayable counterexample: the move sends a true tuple to a false one.
Witness = namedtuple(
    "Witness",
    ["relation", "pattern", "points", "moves", "image_pattern", "image_points"])
Move = namedtuple("Move", ["text", "func"])


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
        Move(word_to_text(w), lambda p, w=w: apply_word(w, p))
        for w in letter_words(letter, n)
    ]


@lru_cache(maxsize=None)
def _images(letter, n):
    """Each move of the letter at size n, applied once to every pattern.

    A tuple of (move text, ((pattern, image, mapping), ...)), moves in
    letter_moves order and patterns in lexicographic order.
    """
    pats = list(enumerate_patterns(n))
    return tuple(
        (move.text, tuple((p, *move.func(p)) for p in pats))
        for move in letter_moves(letter, n))


@lru_cache(maxsize=None)
def _truth(relation):
    """Pattern ranks -> {true tuple: its getter} at size = arity.

    Tuples are in lexicographic order; a tuple's getter carries it
    through a move's point mapping (arity >= 2, so it returns a tuple).
    """
    f = relations.evaluator(relation)
    n = relations.arity(relation)
    tuples = [(t, itemgetter(*t)) for t in permutations(range(n))]
    return {p.ranks: {t: carry for t, carry in tuples if f(p.ranks, t)}
            for p in enumerate_patterns(n)}


@lru_cache(maxsize=None)
def letter_witness(letter, relation):
    """First move of the letter breaking the relation, as a Witness, or None.

    Scans the letter's moves at size = arity, then patterns in
    lexicographic order, then tuples, so the hit is reproducible.  None
    means the letter preserves the relation at every size.
    """
    if letter not in LETTERS:
        raise ValueError("unknown letter: %r" % (letter,))
    truth = _truth(relation)
    for text, images in _images(letter, relations.arity(relation)):
        for p, image, mapping in images:
            holds_after = truth[image.ranks]
            for t, carry in truth[p.ranks].items():
                it = carry(mapping)
                if it not in holds_after:
                    return Witness(relation, p, t, (text,), image, it)
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
