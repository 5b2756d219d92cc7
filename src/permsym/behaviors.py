"""Pair-level behaviors of symmetry words.

A behavior records where a map sends pairs of type T1 and of type T2;
the images of T3 and T4 pairs follow by argument reversal.  Eight of
the sixteen behaviors are invertible maps on pair types; they carry
names built from the moves realizing them ("sw.id/rev" is sw applied
after id/rev).  The other eight send both types into one diagonal
class and are labelled by collapse order and sense instead.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .patterns import T1, T2, T3, T4, Behavior, extend, pair_type, Pattern
from .generators import TURN_KINDS, apply_word

BehaviorClass = namedtuple("BehaviorClass", ["kind", "name", "order", "sense"])

IDENTITY = Behavior(T1, T2)

# name -> behavior, in group-element order used throughout.
NAMED_BEHAVIORS = {
    "id": Behavior(T1, T2),
    "id/rev": Behavior(T2, T1),
    "rev/id": Behavior(T4, T3),
    "rev/rev": Behavior(T3, T4),
    "sw": Behavior(T1, T4),
    "sw.rev/rev": Behavior(T3, T2),
    "sw.id/rev": Behavior(T4, T1),
    "sw.rev/id": Behavior(T2, T3),
}
NAMED_ORDER = tuple(NAMED_BEHAVIORS)
BEHAVIOR_NAMES = {b: name for name, b in NAMED_BEHAVIORS.items()}

# The remaining 8 behaviors collapse onto a diagonal class.
DIAGONAL_CLASSES = {
    Behavior(T1, T1): (1, "preserve"),
    Behavior(T2, T2): (1, "preserve"),
    Behavior(T3, T3): (1, "reverse"),
    Behavior(T4, T4): (1, "reverse"),
    Behavior(T1, T3): (2, "preserve"),
    Behavior(T4, T2): (2, "preserve"),
    Behavior(T3, T1): (2, "reverse"),
    Behavior(T2, T4): (2, "reverse"),
}


def _check(b):
    extend(b)  # raises on a bad behavior
    return b


def behavior_of_word(word):
    """Behavior of a turn-free word, read off the two 2-point patterns."""
    for g in word:
        if g.kind in TURN_KINDS:
            raise ValueError(
                "turns have no pair behavior (the cut splits pairs); got %r" % (g.kind,))
    images = []
    for source in (Pattern((0, 1)), Pattern((1, 0))):
        image = apply_word(word, source)
        images.append(pair_type(image.pattern, image.mapping[0], image.mapping[1]))
    return Behavior(images[0], images[1])


def compose(b1, b2):
    """Behavior of "b2 after b1"; both must be named (invertible)."""
    for b in (b1, b2):
        if _check(b) not in BEHAVIOR_NAMES:
            raise ValueError("cannot compose through a collapsing behavior: %r" % (b,))
    act2 = extend(b2)
    return Behavior(act2[b1.image_t1], act2[b1.image_t2])


def classify(b):
    """Sort a behavior into its named or diagonal-collapse class."""
    _check(b)
    if b in BEHAVIOR_NAMES:
        return BehaviorClass("named", BEHAVIOR_NAMES[b], None, None)
    order, sense = DIAGONAL_CLASSES[b]
    return BehaviorClass("diagonal", None, order, sense)


def describe(bc):
    if bc.kind == "named":
        return "named: %s" % bc.name
    return "diagonal: order %d, %s" % (bc.order, bc.sense)


@lru_cache(maxsize=1)
def named_group_table():
    """Composition table of the 8 named behaviors: (row, col) -> col after row.

    Built once and shared, so it is handed out read-only.
    """
    table = {}
    for n1 in NAMED_ORDER:
        for n2 in NAMED_ORDER:
            product = compose(NAMED_BEHAVIORS[n1], NAMED_BEHAVIORS[n2])
            table[(n1, n2)] = BEHAVIOR_NAMES[product]
    return MappingProxyType(table)


def generated_subgroup(names):
    """Closure of a set of named behaviors under composition."""
    members = {"id"}
    members.update(names)
    table = named_group_table()
    while True:
        fresh = {table[(x, y)] for x in members for y in members} - members
        if not fresh:
            return frozenset(members)
        members.update(fresh)


def subgroups():
    """All subgroups of the named-behavior group, sorted by size then members."""
    table = named_group_table()
    found = []
    names = list(NAMED_ORDER)
    for k in range(len(names) + 1):
        for combo in combinations(names, k):
            s = set(combo)
            if "id" not in s:
                continue
            if all(table[(x, y)] in s for x in s for y in s):
                found.append(frozenset(s))
    return sorted(set(found), key=lambda s: (len(s), sorted(s)))


def element_order(name):
    """Order of a named behavior in the group."""
    table = named_group_table()
    power, k = name, 1
    while power != "id":
        power = table[(power, name)]
        k += 1
    return k


def center():
    """Named behaviors commuting with all others."""
    table = named_group_table()
    return frozenset(
        x for x in NAMED_ORDER
        if all(table[(x, y)] == table[(y, x)] for y in NAMED_ORDER))
