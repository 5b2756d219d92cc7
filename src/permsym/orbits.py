"""Orbit cells of a pattern with designated constants, and behavior checks.

Fixing constants c1..ck splits the remaining points into cells: a point
lands in column j when exactly j constants precede it in the first order,
and in row i when exactly i constants sit below it in the second order.
A sampled map is canonical at the pair level when a single behavior
explains all its sampled pairs cell by cell (and across cell pairs).

A pair (x, y) with images (u, v) has the key (x < y, src[x] < src[y],
u < v, img[u] < img[v]), where src and img are the second-order ranks
of the source and image patterns: its first half names the pair's type
in the source, its second half the type of its image.  The set of
distinct keys, at most 16, decides which behaviors explain the pairs.
It is read off per-point bitmasks, not pair by pair.  Each mapped point
is a row (point, source rank, image point, image rank), and for each of
the four coordinates every row gets the mask of the rows greater there.
For each point x of a cell, its partners (the cell's later points, or
the other cell's points for a cell pair) are split by x's four masks,
and every non-empty part is one key: O(points x cells) integer ANDs.
Each key keeps the first pair it is seen on, the point x with the
lowest partner of its part; points are walked in order, so that is the
first such pair in `combinations` (or product) order.  The keys sorted
by first pair give the first image of each source type and the first
conflicting pairs.
"""

from bisect import bisect
from collections import namedtuple
from itertools import combinations

from .patterns import PAIR_TYPES, TYPE_BY_ORDERS, Behavior, extend

ConstantSet = namedtuple("ConstantSet", ["pattern", "constants"])
OrbitCell = namedtuple("OrbitCell", ["row", "col"])
# A finite partial map between two patterns: mapping is {point: point}.
Sample = namedtuple("Sample", ["source", "image", "mapping"])
CellReport = namedtuple(
    "CellReport", ["points", "observed", "behaviors", "consistent", "counterexample"])
Report = namedtuple("Report", ["cells", "cell_pairs", "canonical", "mixed"])

ALL_BEHAVIORS = tuple(
    Behavior(x, y) for x in PAIR_TYPES for y in PAIR_TYPES)
_ACTIONS = tuple((b, extend(b)) for b in ALL_BEHAVIORS)

# (source type, image type) of each 4-bit key (x < y, src x < src y, u < v,
# img u < img v), its first test the highest bit.
_KEY_TYPES = tuple((TYPE_BY_ORDERS[bool(k & 8), bool(k & 4)],
                    TYPE_BY_ORDERS[bool(k & 2), bool(k & 1)]) for k in range(16))


def constant_set(pattern, constants):
    cs = ConstantSet(pattern, frozenset(constants))
    if len(cs.constants) != len(constants):
        raise ValueError("constants must be distinct points")
    for c in cs.constants:
        if not 0 <= c < pattern.n:
            raise ValueError("constant %r out of range for size %d" % (c, pattern.n))
    return cs


def cells_of(cs):
    """Cell -> sorted list of its points, for all non-constant points.

    A point's cell counts the constants below it in each order, found by
    bisecting the constants' sorted points and ranks.
    """
    r, out = cs.pattern.ranks, {}
    cols, rows = sorted(cs.constants), sorted(r[c] for c in cs.constants)
    for p in range(cs.pattern.n):
        if p not in cs.constants:
            out.setdefault(OrbitCell(bisect(rows, r[p]), bisect(cols, p)), []).append(p)
    return out


def _above(rows):
    """Per row, one mask per coordinate of the rows greater there.

    Bit j of ``above[i][c]`` is set iff rows[j][c] > rows[i][c].  Each
    coordinate is distinct across rows, so one descending sort and a
    running OR give all of its masks.
    """
    masks = []
    for c in range(4):
        gt, acc = [0] * len(rows), 0
        for i in sorted(range(len(rows)), key=lambda i: rows[i][c], reverse=True):
            gt[i] = acc
            acc |= 1 << i
        masks.append(gt)
    return tuple(zip(*masks))


def _observe(rows, above, a, b=None):
    """First image type per source type over the pairs; first conflict found.

    The pairs join each row of range ``a`` to the later rows of ``a``,
    or, given range ``b``, to every row of ``b``, ordered by row, then
    partner; ``above`` is `_above` of all the rows.  Each row's partners
    are split by its four masks into the keys, and a key first seen at
    row i keeps i and its part, whose lowest bit is the partner of its
    first pair.
    """
    first = {}
    later = (1 << a.stop) - (1 << a.start)
    partners = None if b is None else (1 << b.stop) - (1 << b.start)
    for i in a:
        later &= later - 1  # the rows of a after row i
        m = later if partners is None else partners
        g0, g1, g2, g3 = above[i]
        h0 = m & g0
        for k0, m0 in ((8, h0), (0, m ^ h0)):
            if not m0:
                continue
            h1 = m0 & g1
            for k1, m1 in ((k0 | 4, h1), (k0, m0 ^ h1)):
                if not m1:
                    continue
                h2 = m1 & g2
                for k2, m2 in ((k1 | 2, h2), (k1, m1 ^ h2)):
                    if m2:
                        h3 = m2 & g3
                        if h3 and k2 | 1 not in first:
                            first[k2 | 1] = (i, h3)
                        if h3 != m2 and k2 not in first:
                            first[k2] = (i, m2 ^ h3)
    observed, first_pair, counterexample = {}, {}, None
    for i, j, k in sorted((i, (m & -m).bit_length() - 1, k)
                          for k, (i, m) in first.items()):
        s, d = _KEY_TYPES[k]
        if s not in observed:
            observed[s], first_pair[s] = d, (rows[i][0], rows[j][0])
        elif observed[s] != d and counterexample is None:
            counterexample = (first_pair[s], (rows[i][0], rows[j][0]))
    # behaviors must explain every sampled pair, not just the first per type
    seen = {_KEY_TYPES[k] for k in first}
    behaviors = tuple(b for b, act in _ACTIONS if all(act[s] == d for s, d in seen))
    consistent = counterexample is None and bool(behaviors)
    return observed, behaviors, consistent, counterexample


def check_canonical(cs, sample):
    """Per-cell and per-cell-pair behavior report for a sampled map."""
    src, img, m = sample.source.ranks, sample.image.ranks, sample.mapping
    if sample.source != cs.pattern:
        raise ValueError("sample source differs from the constants' pattern")
    for p in m:
        if not 0 <= p < len(src):
            raise ValueError("source point %r out of range for size %d" % (p, len(src)))
    grouped = {}
    for cell, pts in sorted(cells_of(cs).items()):
        pts = tuple(p for p in pts if p in m)
        if pts:
            grouped[cell] = pts
    images = [m[p] for pts in grouped.values() for p in pts]
    if len(set(images)) != len(images):
        raise ValueError("sample not injective on non-constant points")
    for i in images:
        if not 0 <= i < len(img):
            raise ValueError("image point %r out of range for size %d" % (i, len(img)))
    rows = [(p, src[p], m[p], img[m[p]]) for pts in grouped.values() for p in pts]
    above, spans, start = _above(rows), {}, 0
    for cell, pts in grouped.items():
        spans[cell] = range(start, start + len(pts))
        start += len(pts)
    cells = {cell: CellReport(pts, *_observe(rows, above, spans[cell]))
             for cell, pts in grouped.items()}
    cell_pairs = {(ca, cb): CellReport((grouped[ca], grouped[cb]),
                                       *_observe(rows, above, spans[ca], spans[cb]))
                  for ca, cb in combinations(grouped, 2)}
    canonical = (all(c.consistent for c in cells.values())
                 and all(c.consistent for c in cell_pairs.values()))
    sampled = [c.behaviors for c in cells.values() if c.observed]
    mixed = False
    if sampled and all(c.consistent for c in cells.values()):
        common = set(sampled[0])
        for bs in sampled[1:]:
            common &= set(bs)
        mixed = not common
    return Report(cells, cell_pairs, canonical, mixed)
