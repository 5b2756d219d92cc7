"""Orbit cells of a pattern with designated constants, and behavior checks.

Fixing constants c1..ck splits the remaining points into cells: a point
lands in column j when exactly j constants precede it in the first order,
and in row i when exactly i constants sit below it in the second order.
A sampled map is canonical at the pair level when a single behavior
explains all its sampled pairs cell by cell (and across cell pairs).

Each cell, and each cell pair, is checked in one set pass.  A pair
(x, y) with images (u, v) has the key (x < y, src[x] < src[y], u < v,
img[u] < img[v]), where src and img are the second-order ranks of the
source and image patterns: its first half names the pair's type in the
source, its second half the type of its image.  The set of distinct
keys, at most 16, decides which behaviors explain the pairs.  Only when
some source type has two image types does an ordered scan follow, in
`combinations` (or product) order, to find the first conflicting pairs
and the first image of each source type; a canonical sample never
needs it.
"""

from collections import namedtuple
from itertools import combinations, product

from .patterns import T1, T2, T3, T4, PAIR_TYPES
from .behaviors import Behavior, extend

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

# Type of an ordered pair (x, y) from (x < y in the first order,
# x below y in the second order).
_TYPE = {(True, True): T1, (True, False): T2, (False, False): T3, (False, True): T4}


def constant_set(pattern, constants):
    cs = ConstantSet(pattern, frozenset(constants))
    for c in cs.constants:
        if not 0 <= c < pattern.n:
            raise ValueError("constant %r out of range for size %d" % (c, pattern.n))
    return cs


def cell_of(cs, point):
    """Cell of a non-constant point: counts of constants below it per order."""
    if point in cs.constants:
        raise ValueError("point %d is a constant" % (point,))
    if not 0 <= point < cs.pattern.n:
        raise ValueError("point %r out of range" % (point,))
    r = cs.pattern.ranks
    col = sum(1 for c in cs.constants if c < point)
    row = sum(1 for c in cs.constants if r[c] < r[point])
    return OrbitCell(row, col)


def cells_of(cs):
    """Cell -> sorted list of its points, for all non-constant points."""
    out = {}
    for p in range(cs.pattern.n):
        if p in cs.constants:
            continue
        out.setdefault(cell_of(cs, p), []).append(p)
    return out


def _observe(make_pairs, *args):
    """First image type per source type over the pairs; first conflict found.

    ``make_pairs(*args)`` yields the pairs in order, each point as its
    row (point, source rank, image point, image rank).  It is called a
    second time only when some source type has two image types.
    """
    seen = {(_TYPE[k[:2]], _TYPE[k[2:]]) for k in {
        (x < y, sx < sy, u < v, iu < iv)
        for (x, sx, u, iu), (y, sy, v, iv) in make_pairs(*args)}}
    sources = {s for s, _ in seen}
    observed, counterexample = dict(seen), None
    if len(sources) < len(seen):
        observed, first_pair = {}, {}
        for (x, sx, u, iu), (y, sy, v, iv) in make_pairs(*args):
            s, d = _TYPE[x < y, sx < sy], _TYPE[u < v, iu < iv]
            if s not in observed:
                observed[s] = d
                first_pair[s] = (x, y)
            elif observed[s] != d and counterexample is None:
                counterexample = (first_pair[s], (x, y))
            if counterexample and len(observed) == len(sources):
                break
    # behaviors must explain every sampled pair, not just the first per type
    behaviors = tuple(b for b, act in _ACTIONS if all(act[s] == d for s, d in seen))
    consistent = counterexample is None and bool(behaviors)
    return observed, behaviors, consistent, counterexample


def check_canonical(cs, sample):
    """Per-cell and per-cell-pair behavior report for a sampled map."""
    src, img, m = sample.source.ranks, sample.image.ranks, sample.mapping
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
    rows = {cell: [(p, src[p], m[p], img[m[p]]) for p in pts]
            for cell, pts in grouped.items()}
    cells = {cell: CellReport(pts, *_observe(combinations, rows[cell], 2))
             for cell, pts in grouped.items()}
    cell_pairs = {(ca, cb): CellReport((grouped[ca], grouped[cb]),
                                       *_observe(product, rows[ca], rows[cb]))
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
