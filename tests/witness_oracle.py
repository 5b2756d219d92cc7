"""The tests' witness oracle: moves rebuilt from their texts with plain
generators, relations evaluated tuple by tuple, and a label's group bounded
from below without the preservation matrix.  It imports nothing from
permsym.letters, lattice or preservation, whose answers it checks.
"""

from collections import namedtuple
from itertools import permutations

from permsym import relations
from permsym.behaviors import generated_subgroup
from permsym.generators import apply_word, word_from_text
from permsym.patterns import enumerate_patterns, pattern_from_text, pattern_to_text

# Each letter move by its text: its letter and, for a plain move, the
# pair behavior of permsym.behaviors it realizes.  Turns and scrambles
# are keyed by their text up to the cut or target.
MOVES = {
    "rev2": ("a", "id/rev"), "rev1": ("c", "rev/id"),
    "revrev": ("e", "rev/rev"), "sw": ("f", "sw"),
    "revrev,sw": ("g", "sw.rev/rev"),
    "rev2,sw": ("h", "sw.id/rev"), "rev1,sw": ("h", "sw.rev/id"),
    "t2@": ("b", None), "t1@": ("d", None), "i@": ("i", None), "j@": ("j", None),
}

Step = namedtuple("Step", "move pattern points image image_points before after")


def move_letter(text):
    """The letter whose move family holds the move text."""
    head, at, tail = text.partition("@")
    entry = None if "," in tail else MOVES.get(head + at)
    if entry is None:
        raise ValueError("not a letter move: %r" % (text,))
    return entry[0]


def replay_move(text, p):
    """A letter move by its text, rebuilt without the letter scan's tables:
    a generator word, or a scramble toward the pattern after i@ or j@."""
    head, _, tail = text.partition("@")
    if head in ("i", "j"):
        target = pattern_from_text(tail)
        if target.n != p.n:
            raise ValueError("scramble target %s has size %d, not %d"
                             % (tail, target.n, p.n))
        if head == "i":
            return target, tuple(range(p.n))
        inv = {v: idx for idx, v in enumerate(target.ranks)}
        return target, tuple(inv[v] for v in p.ranks)
    res = apply_word(word_from_text(text), p)
    return res.pattern, res.mapping


def move_steps(texts, rel, n):
    """Each step of the ordered scan at size n, with rel's truth on the
    tuple before and on its image after: moves in order, then patterns,
    then tuples, both in lexicographic order."""
    f = relations.evaluator(rel)
    tuples = list(permutations(range(n), relations.arity(rel)))
    for text in texts:
        for p in enumerate_patterns(n):
            image, mapping = replay_move(text, p)
            for t in tuples:
                it = tuple(mapping[x] for x in t)
                yield Step(text, p, t, image, it,
                           bool(f(p.ranks, t)), bool(f(image.ranks, it)))


def letters_in_group(label):
    """Letters certainly inside the group a label generates; sym is all ten.

    Sound, not complete: a one-order scramble contains the moves fixing
    that order, an order exchange conjugates one turn family into the
    other, and plain-move letters close under the subgroup their pair
    behaviors generate (the order-4 rotation squares to rev/rev).
    """
    members = set({"bottom": "", "sym": "abcdefghij"}.get(label, label))
    while True:
        grown = set(members)
        if "i" in members:
            grown |= set("ab")
        if "j" in members:
            grown |= set("cd")
        if members & set("fgh") and members & set("bd"):
            grown |= set("bd")
        subgroup = generated_subgroup(
            {b for x, b in MOVES.values() if b and x in members})
        grown |= {x for x, b in MOVES.values() if b in subgroup}
        if grown == members:
            return frozenset(members)
        members = grown


def points_text(points):
    return ",".join("p%d" % (x + 1) for x in points)


def replay_fault(label, rel, w):
    """Why witness w does not refute (label, rel), or None: each move must
    be of a letter certainly in the label's group, and the replay must
    reach the stated image, where rel fails though it holds on the source."""
    if w is None:
        return "no witness"
    if w.relation != rel:
        return "witness is for %s" % w.relation
    group = letters_in_group(label)
    current, points = w.pattern, tuple(w.points)
    for text in w.moves:
        try:
            letter = move_letter(text)
            image, mapping = replay_move(text, current)
        except ValueError as exc:
            return "move does not parse: %s" % exc
        if letter not in group:
            return "move %s of letter %s is not certainly in %s" % (text, letter, label)
        current, points = image, tuple(mapping[x] for x in points)
    if (current, points) != (w.image_pattern, tuple(w.image_points)):
        return "replay gives %s at %s" % (pattern_to_text(current), points_text(points))
    if not relations.evaluate(rel, w.pattern, w.points):
        return "%s fails on the source tuple" % rel
    if relations.evaluate(rel, current, points):
        return "%s holds on the image tuple" % rel
    return None
