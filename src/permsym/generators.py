"""The six geometric symmetry moves acting on patterns.

A move sends a pattern to a pattern of the same size together with a
point correspondence (``mapping[i]`` is the image point of point i).
A move is ``GeneratorId(kind, cut)``, read from its text spelling:

  rev1     reverse the first order
  rev2     reverse the second order
  revrev   reverse both orders
  sw       exchange the two orders (rank sequence inverts)
  t1@k     rotate the first order at cut k: the k lowest points become
           the k highest, order kept inside each block, 0 <= k <= n
  t2@k     the same rotation on the second order

A word is comma-separated text, applied left to right; "" is the identity.
"""

from collections import namedtuple

from .patterns import Pattern

GeneratorId = namedtuple("GeneratorId", ["kind", "cut"])
# Image pattern plus the point correspondence of a move application.
MappedTuple = namedtuple("MappedTuple", ["pattern", "mapping"])

PLAIN_KINDS = ("rev1", "rev2", "revrev", "sw")
TURN_KINDS = ("t1", "t2")


# The orders each order-moving kind moves: (first, second).
_MOVED = {"rev1": (True, False), "t1": (True, False), "rev2": (False, True),
          "t2": (False, True), "revrev": (True, True)}


def apply(g, p):
    """Apply one move to a pattern, returning a MappedTuple."""
    n, r = p.n, p.ranks
    if g.kind == "sw":
        # Point i goes to point r[i], so the rank sequence inverts.
        return MappedTuple(Pattern(sorted(range(n), key=r.__getitem__)), r)
    if g.kind not in _MOVED:
        raise ValueError("unknown generator kind: %r" % (g.kind,))
    # The move on one order: a turn at cut k, or reversal.
    k = _check_cut(g, n) if g.kind in TURN_KINDS else None
    step = [n - 1 - i for i in range(n)] if k is None else [(i - k) % n for i in range(n)]
    first, second = _MOVED[g.kind]
    # Point i goes to step[i] when the first order moves, and rank v
    # becomes step[v] when the second does.
    mapping = tuple(step) if first else tuple(range(n))
    ranks = [0] * n
    for i in range(n):
        ranks[mapping[i]] = step[r[i]] if second else r[i]
    return MappedTuple(Pattern(ranks), mapping)


def apply_word(word, p):
    """Apply a list of moves left to right; composes the correspondences."""
    mapping = tuple(range(p.n))
    current = p
    for g in word:
        step = apply(g, current)
        current = step.pattern
        mapping = tuple(step.mapping[m] for m in mapping)
    return MappedTuple(current, mapping)


def generator_from_text(text):
    """Parse one move name, e.g. "sw" or "t1@2"."""
    text = text.strip()
    if text in PLAIN_KINDS:
        return GeneratorId(text, None)
    if "@" in text:
        kind, _, cut = text.partition("@")
        if kind in TURN_KINDS and cut.isascii() and cut.isdigit():
            return GeneratorId(kind, int(cut))
    raise ValueError("unknown generator: %r" % (text,))


def word_from_text(text):
    """Parse a comma-separated word, e.g. "sw,rev2,t1@2"; "" is the identity."""
    text = text.strip()
    if not text:
        return []
    return [generator_from_text(part) for part in text.split(",")]


def _check_cut(g, n):
    if g.cut is None or not 0 <= g.cut <= n:
        raise ValueError("turn cut %r invalid for size %d" % (g.cut, n))
    return g.cut
