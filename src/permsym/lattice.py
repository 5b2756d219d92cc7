"""Closed letter sets: the 39-element lattice of symmetry groups.

A set S of the ten letters of ``permsym.letters`` is closed when it
holds every letter that preserves each relation all letters of S
preserve: the Galois closure over the letter x relation preservation
matrix.  A closed group is described by the relations it preserves
(Bodirsky-Pinsker, "Reducts of Ramsey structures"), so closure and the
Hasse diagram order groups by the containment the preservation table
computes: one closed set lies inside another exactly when its table row
contains the other's.
Closing all 1024 subsets yields a fixed 39-element lattice; each
element is labelled by its smallest generating subset.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .letters import FULL, LETTERS, letter_witness
from .relations import RELATION_NAMES

_ALL_RELATIONS = (1 << len(RELATION_NAMES)) - 1

ClosedSet = namedtuple("ClosedSet", ["members", "name"])


@lru_cache(maxsize=1)
def _preserved_masks():
    """Per letter, in LETTERS order, its preserved relations as a bitmask."""
    return tuple(
        sum(1 << k for k, rel in enumerate(RELATION_NAMES)
            if letter_witness(x, rel) is None)
        for x in LETTERS)


def _check_letters(s):
    bad = set(s) - FULL
    if bad:
        raise ValueError("unknown letters: %s" % ", ".join(map(repr, sorted(bad))))
    return frozenset(s)


def closure_trace(s):
    """Close a letter set: (members, relations every letter of s preserves).

    The members are the letters that preserve each of those relations,
    so the relations are what decide the closure.
    """
    masks = _preserved_masks()
    kept = _ALL_RELATIONS
    for x in _check_letters(s):
        kept &= masks[LETTERS.index(x)]
    members = frozenset(x for x, m in zip(LETTERS, masks) if m & kept == kept)
    return members, tuple(rel for k, rel in enumerate(RELATION_NAMES) if kept >> k & 1)


def closure(s):
    return closure_trace(s)[0]


@lru_cache(maxsize=1)
def _all_closed():
    """Closed set -> label, ordered by member bitmask.

    Subsets are closed by size, then alphabetically; the first subset to
    reach a closed set (fixed by the relations the subset keeps, taken from
    the subset without its lowest letter) is its label.
    """
    masks = _preserved_masks()
    kept = [_ALL_RELATIONS]
    for s in range(1, 1 << len(LETTERS)):
        kept.append(kept[s & (s - 1)] & masks[(s & -s).bit_length() - 1])
    bits = [1 << x for x in range(len(LETTERS))]
    first = {}
    for k in range(len(LETTERS) + 1):
        for combo in combinations(bits, k):
            first.setdefault(kept[sum(combo)], combo)
    labels = {sum(b for b, m in zip(bits, masks) if m & rels == rels):
              "".join(LETTERS[b.bit_length() - 1] for b in combo) or "bottom"
              for rels, combo in first.items()}
    labels[(1 << len(LETTERS)) - 1] = "sym"
    return {frozenset(x for k, x in enumerate(LETTERS) if members >> k & 1): label
            for members, label in sorted(labels.items())}


def minimal_label(members):
    """Smallest generating subset, ties broken alphabetically."""
    label = _all_closed().get(_check_letters(members))
    if label is None:
        raise ValueError("not a closed set: %r" % (sorted(members),))
    return label


def enumerate_lattice():
    """All closed sets, ordered by member bitmask, named; must number 39."""
    closed = _all_closed()
    if len(closed) != 39:
        raise RuntimeError(
            "expected 39 closed sets, found %d: %s"
            % (len(closed), sorted("".join(sorted(c)) for c in closed)))
    return [ClosedSet(c, name) for c, name in closed.items()]


def find(label):
    for x in enumerate_lattice():
        if x.name == label:
            return x
    raise ValueError("unknown group label: %r" % (label,))


def hasse():
    """Covering edges (lower name, upper name) of the 39-element order.

    Edges come in member-bitmask order of the lower, then the upper end.
    """
    elements = enumerate_lattice()
    edges = []
    for low in elements:
        for high in elements:
            if not low.members < high.members:
                continue
            strict_between = any(
                low.members < mid.members < high.members for mid in elements)
            if not strict_between:
                edges.append((low.name, high.name))
    return edges


def export_dot():
    """Hasse diagram as deterministic DOT text, bottom drawn lowest."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for x in enumerate_lattice():
        lines.append('  "%s";' % x.name)
    for low, high in hasse():
        lines.append('  "%s" -> "%s";' % (low, high))
    lines.append("}")
    return "\n".join(lines) + "\n"
