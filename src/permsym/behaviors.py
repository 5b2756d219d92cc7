"""Pair-level behaviors of symmetry words.

A behavior records where a map sends pairs of type t1 and t2; the
images of t3 and t4 pairs follow by argument reversal.  Eight of the 16
behaviors are invertible, named by the moves realizing them ("sw.id/rev"
is sw applied after id/rev).  The other eight keep one order's reading
of a pair, and are labelled by that order and its sense.
"""

from collections import namedtuple
from itertools import combinations

from .patterns import T1, T2, T3, T4, TYPE_BY_ORDERS, Behavior, extend, pair_type, Pattern

BehaviorClass = namedtuple("BehaviorClass", ["kind", "name", "order", "sense"])

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
BEHAVIOR_NAMES = {b: name for name, b in NAMED_BEHAVIORS.items()}

_INCREASING_IN = {t: orders for orders, t in TYPE_BY_ORDERS.items()}  # (order 1, order 2)


def behavior_of_word(word):
    """Behavior of a turn-free word, read off the two 2-point patterns."""
    from .generators import TURN_KINDS, apply_word  # classify never needs them
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
        extend(b)  # raises on a bad behavior
        if b not in BEHAVIOR_NAMES:
            raise ValueError("cannot compose through a collapsing behavior: %r" % (b,))
    act2 = extend(b2)
    return Behavior(act2[b1.image_t1], act2[b1.image_t2])


def classify(b):
    """Sort a behavior into its named or diagonal-collapse class.

    A collapse reads order 1 if t1 and t2 pairs land on one type, 2 if on a
    type and its reversal; it is "preserve" if t1's image increases there.
    """
    extend(b)  # raises on a bad behavior
    if b in BEHAVIOR_NAMES:
        return BehaviorClass("named", BEHAVIOR_NAMES[b], None, None)
    order = 1 if b.image_t1 == b.image_t2 else 2
    sense = "preserve" if _INCREASING_IN[b.image_t1][order - 1] else "reverse"
    return BehaviorClass("diagonal", None, order, sense)


def named_group_table():
    """Composition table of the 8 named behaviors: (row, col) -> col after row."""
    table = {}
    for n1 in NAMED_BEHAVIORS:
        for n2 in NAMED_BEHAVIORS:
            product = compose(NAMED_BEHAVIORS[n1], NAMED_BEHAVIORS[n2])
            table[(n1, n2)] = BEHAVIOR_NAMES[product]
    return table


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
    """All subgroups of the named-behavior group, sorted by size then members.

    Each subgroup is generated by its own members, so the subgroups are
    exactly the closures of the subsets of the group.
    """
    return sorted({generated_subgroup(combo) for k in range(len(NAMED_BEHAVIORS) + 1)
                   for combo in combinations(NAMED_BEHAVIORS, k)},
                  key=lambda s: (len(s), sorted(s)))
