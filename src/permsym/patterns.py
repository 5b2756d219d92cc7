"""Finite patterns: a set of points carrying two linear orders.

A pattern of size n is stored as the tuple ``ranks`` of length n, a
permutation of range(n): the point with rank i in the first order has
rank ranks[i] in the second order.  Points are referenced by their
first-order rank (0-based).  The text form is 1-based, e.g. "231" for
ranks (1, 2, 0); sizes above 9 use commas ("2,10,1,...").
"""

from collections import namedtuple
from itertools import combinations, permutations
from operator import itemgetter, lt

# The four isomorphism types of an ordered pair (x, y) of distinct points.
T1 = "t1"  # x below y in both orders
T2 = "t2"  # x below y in the first order, above in the second
T3 = "t3"  # reversal of T1
T4 = "t4"  # reversal of T2

PAIR_TYPES = (T1, T2, T3, T4)

# Type of an ordered pair (x, y) from (x before y in the first order,
# x below y in the second order).
TYPE_BY_ORDERS = {(True, True): T1, (True, False): T2,
                  (False, False): T3, (False, True): T4}

# Swapping the two arguments of a pair negates both readings.
REVERSED_TYPE = {t: TYPE_BY_ORDERS[not x, not y] for (x, y), t in TYPE_BY_ORDERS.items()}

# A pair-level behavior: where a map sends pairs of type T1 and of type
# T2.  The images of T3 and T4 pairs follow by argument reversal.
Behavior = namedtuple("Behavior", ["image_t1", "image_t2"])


def extend(b):
    """Full action on all four pair types implied by a behavior."""
    if b.image_t1 not in PAIR_TYPES or b.image_t2 not in PAIR_TYPES:
        raise ValueError("bad behavior: %r" % (b,))
    return {
        T1: b.image_t1,
        T2: b.image_t2,
        T3: REVERSED_TYPE[b.image_t1],
        T4: REVERSED_TYPE[b.image_t2],
    }


class Pattern(namedtuple("Pattern", ["ranks"])):
    """An immutable pattern, hashable and totally ordered by rank sequence."""

    __slots__ = ()

    def __new__(cls, ranks):
        ranks = tuple(ranks)
        if sorted(ranks) != list(range(len(ranks))):
            raise ValueError("ranks must be a permutation of range(n): %r" % (ranks,))
        return tuple.__new__(cls, (ranks,))

    @classmethod
    def _make(cls, fields):
        """Rebuild through the constructor, so _replace validates too."""
        return cls(*fields)

    @property
    def n(self):
        return len(self.ranks)

    def __repr__(self):
        return "Pattern(%r)" % (pattern_to_text(self),)


def pattern_from_text(text):
    """Parse "231" or "2,3,1" (1-based second-order ranks in first-order order)."""
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    if all(p.isascii() and p.isdigit() for p in parts):
        try:
            return Pattern(int(p) - 1 for p in parts)
        except ValueError:
            pass
    raise ValueError("bad pattern text: %r" % (text,))


def pattern_to_text(p):
    """Inverse of pattern_from_text; digits up to size 9, commas beyond."""
    values = [r + 1 for r in p.ranks]
    if p.n <= 9:
        return "".join(str(v) for v in values)
    return ",".join(str(v) for v in values)


def from_points(coords):
    """Build the Pattern realized by a list of (x1, x2) coordinate pairs.

    Coordinates may be any mutually comparable numbers; both coordinates
    must be pairwise distinct (the points are independent).
    """
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("coordinates must be distinct in each order")
    order1 = sorted(range(len(coords)), key=lambda k: xs[k])
    rank2 = {k: r for r, k in enumerate(sorted(range(len(coords)), key=lambda k: ys[k]))}
    return Pattern(rank2[k] for k in order1)


def pair_type(p, i, j):
    """Type of the ordered pair (point i, point j), one of T1..T4."""
    if i == j:
        raise ValueError("pair_type needs two distinct points")
    _check_index(p, i)
    _check_index(p, j)
    return TYPE_BY_ORDERS[i < j, p.ranks[i] < p.ranks[j]]


def sub_pattern(p, s):
    """Pattern induced by the point set s, ranks recompressed."""
    idx = sorted(set(s))
    for i in idx:
        _check_index(p, i)
    second = sorted(p.ranks[i] for i in idx)
    rank2 = {v: r for r, v in enumerate(second)}
    return Pattern(rank2[p.ranks[i]] for i in idx)


def iter_copies(host, small):
    """Yield the copies of small in host one at a time, in copies_of order."""
    k = small.n
    if k < 2:
        yield from combinations(range(host.n), k)
        return
    by_rank = itemgetter(*sorted(range(k), key=small.ranks.__getitem__))
    for s, ranks in zip(combinations(range(host.n), k), combinations(host.ranks, k)):
        v = by_rank(ranks)
        if all(map(lt, v, v[1:])):
            yield s


def copies_of(host, small):
    """All index sets S (sorted tuples) with sub_pattern(host, S) == small.

    S is a copy iff the host ranks of its points, read in the order of
    small's second-order ranks, increase.
    """
    return list(iter_copies(host, small))


def enumerate_patterns(n):
    """Yield all n! patterns of size n in lexicographic rank order."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    for ranks in permutations(range(n)):
        yield Pattern(ranks)


def _check_index(p, i):
    if not 0 <= i < p.n:
        raise ValueError("point index %r out of range for size %d" % (i, p.n))
