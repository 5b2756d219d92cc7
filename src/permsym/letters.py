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

The scan's states are k-types at k = arity: a size-k pattern with an
ordering of all its points, numbered pattern * k! + tuple with both in
lexicographic order (``_space``: (k!)^2 entries per size, so scan sizes
only, k <= 4).  Each letter's moves are stated once, as the texts its
witnesses print (``letter_moves``), and tabulated as one (image,
mapping) index pair per pattern; a word's generators compose through
the k! x k! table of point mappings.  A relation's truth is one byte
per state, read as one big-endian int.  A move's truth after it
gathers each image's bytes through the mapping; in ``before & ~after``
the highest set bit is the first broken state: the witness.
"""

from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from . import relations
from .patterns import enumerate_patterns, pattern_to_text
from .generators import apply, word_from_text

LETTERS = "abcdefghij"
FULL = frozenset(LETTERS)
SCRAMBLE_LETTERS = "ij"

# A replayable counterexample: the move sends a true tuple to a false one.
Witness = namedtuple(
    "Witness",
    ["relation", "pattern", "points", "moves", "image_pattern", "image_points"])


@lru_cache(maxsize=None)
def _space(n):
    """Size-n k-types: patterns, rank tuple -> index, compose[a][b] = tuple b
    through mapping a, getters[a] = a truth row gathered through mapping a."""
    pats = tuple(enumerate_patterns(n))
    index = {p.ranks: k for k, p in enumerate(pats)}
    compose = tuple(tuple(index[tuple(a.ranks[x] for x in b.ranks)] for b in pats)
                    for a in pats)
    return pats, index, compose, tuple(itemgetter(*row) for row in compose)


@lru_cache(maxsize=None)
def _generator_table(g, n):
    """(images, mappings): one generator's indices per pattern of size n."""
    pats, index, _, _ = _space(n)
    moved = [apply(g, p) for p in pats]
    return tuple(index[q.ranks] for q, _ in moved), tuple(index[m] for _, m in moved)


def _scramble(letter, target, n):
    """Mapping index of letter@target on each pattern of size n: i keeps
    every point, j sends the point of rank v to where the target has v."""
    pats, _, compose, _ = _space(n)
    return (0,) * len(pats) if letter == "i" else compose[compose[target].index(0)]


# The texts of the turn-free letters' moves (h's are the two order-4
# rotations, inverses of each other), and the order b and d turn.
_TEXTS = {"a": ["rev2"], "c": ["rev1"], "e": ["revrev"], "f": ["sw"],
          "g": ["revrev,sw"], "h": ["rev2,sw", "rev1,sw"]}
_TURNS = {"b": "t2", "d": "t1"}


def letter_moves(letter, n):
    """The texts of one letter's moves at size n, deterministic order: a
    generator word, or i@target / j@target for each size-n target."""
    if letter not in FULL:
        raise ValueError("unknown letter: %r" % (letter,))
    if letter in SCRAMBLE_LETTERS:
        return ["%s@%s" % (letter, pattern_to_text(q)) for q in enumerate_patterns(n)]
    if letter in _TURNS:
        return ["%s@%d" % (_TURNS[letter], k) for k in range(n + 1)]
    return list(_TEXTS[letter])


@lru_cache(maxsize=None)
def _move_tables(letter, n):
    """(text, (images, mappings)) for each letter_moves move: its image and
    mapping index per pattern; a word's composes its generators'."""
    pats, _, compose, _ = _space(n)
    tables = []
    for target, text in enumerate(letter_moves(letter, n)):
        if letter in SCRAMBLE_LETTERS:
            images, maps = (target,) * len(pats), _scramble(letter, target, n)
        else:
            images, maps = range(len(pats)), (0,) * len(pats)
            for g in word_from_text(text):
                step_images, step_maps = _generator_table(g, n)
                maps = tuple(compose[step_maps[q]][m] for q, m in zip(images, maps))
                images = tuple(step_images[q] for q in images)
        tables.append((text, (images, maps)))
    return tuple(tables)


@lru_cache(maxsize=None)
def _truth(relation):
    """Per pattern at size = arity, its truth row, and the rows as one int."""
    f = relations.evaluator(relation)
    pats = _space(relations.arity(relation))[0]
    rows = tuple(bytes(f(p.ranks, t.ranks) for t in pats) for p in pats)
    return rows, int.from_bytes(b"".join(rows), "big")


@lru_cache(maxsize=None)
def letter_witness(letter, relation):
    """First move of the letter breaking the relation, as a Witness, or None.

    Scans the letter's moves at size = arity, then patterns in
    lexicographic order, then tuples, so the hit is reproducible.  None
    means the letter preserves the relation at every size.
    """
    rows, before = _truth(relation)
    pats, _, compose, getters = _space(relations.arity(relation))
    for text, (images, maps) in _move_tables(letter, relations.arity(relation)):
        after = b"".join(bytes(getters[m](rows[q])) for q, m in zip(images, maps))
        broken = before & ~int.from_bytes(after, "big")
        if broken:
            state = len(after) - 1 - (broken.bit_length() - 1) // 8
            p, t = divmod(state, len(pats))
            return Witness(relation, pats[p], pats[t].ranks, (text,),
                           pats[images[p]], pats[compose[maps[p]][t]].ranks)
    return None

