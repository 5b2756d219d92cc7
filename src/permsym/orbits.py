"""Orbit cells of a pattern with designated constants, and behavior checks.

Fixing constants c1..ck splits the remaining points into cells: a point
lands in column j when exactly j constants precede it in the first order,
and in row i when exactly i constants sit below it in the second order.
A sampled map is canonical at the pair level when a single behavior
explains all its sampled pairs cell by cell (and across cell pairs).
"""

from collections import namedtuple
from itertools import combinations

from .patterns import pair_type, PAIR_TYPES
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


def _observe(sample, pairs):
    """First image type per source type over the pairs; first conflict found."""
    observed = {}
    first_pair = {}
    counterexample = None
    seen = set()
    for x, y in pairs:
        src = pair_type(sample.source, x, y)
        dst = pair_type(sample.image, sample.mapping[x], sample.mapping[y])
        seen.add((src, dst))
        if src not in observed:
            observed[src] = dst
            first_pair[src] = (x, y)
        elif observed[src] != dst and counterexample is None:
            counterexample = (first_pair[src], (x, y))
    # behaviors must explain every sampled pair, not just the first per type
    behaviors = tuple(
        b for b, act in zip(ALL_BEHAVIORS, map(extend, ALL_BEHAVIORS))
        if all(act[s] == d for s, d in seen))
    consistent = counterexample is None and bool(behaviors)
    return observed, behaviors, consistent, counterexample


def check_canonical(cs, sample):
    """Per-cell and per-cell-pair behavior report for a sampled map."""
    grouped = {}
    for cell, pts in sorted(cells_of(cs).items()):
        pts = [p for p in pts if p in sample.mapping]
        if pts:
            grouped[cell] = pts
    images = [sample.mapping[p] for pts in grouped.values() for p in pts]
    if len(set(images)) != len(images):
        raise ValueError("sample not injective on non-constant points")
    cells = {}
    for cell, pts in grouped.items():
        pairs = list(combinations(pts, 2))
        observed, behaviors, consistent, cx = _observe(sample, pairs)
        cells[cell] = CellReport(tuple(pts), observed, behaviors, consistent, cx)
    cell_pairs = {}
    for ca, cb in combinations(grouped, 2):
        pairs = [(x, y) for x in grouped[ca] for y in grouped[cb]]
        observed, behaviors, consistent, cx = _observe(sample, pairs)
        cell_pairs[(ca, cb)] = CellReport(
            (tuple(grouped[ca]), tuple(grouped[cb])),
            observed, behaviors, consistent, cx)
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
