from itertools import chain, combinations, product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from permsym.patterns import (
    Pattern, pattern_from_text, enumerate_patterns, pair_type, PAIR_TYPES, T1, T2)
from permsym.generators import (
    REV1, REV2, REVREV, SW, apply_word, turn_first, turn_second)
from permsym.behaviors import Behavior, NAMED_BEHAVIORS, behavior_of_word, extend
from permsym.orbits import (
    ALL_BEHAVIORS, CellReport, OrbitCell, Report, Sample,
    constant_set, cells_of, check_canonical, _above, _observe,
)

WORDS = [[]]
for g in (REV1, REV2, REVREV, SW):
    WORDS.append([g])
WORDS.extend([g1, g2] for g1 in (REV1, REV2, REVREV, SW)
             for g2 in (REV1, REV2, REVREV, SW))


def _word_sample(word, p):
    res = apply_word(word, p)
    return Sample(p, res.pattern, dict(enumerate(res.mapping)))


def test_constant_set_validation():
    p = pattern_from_text("213")
    assert constant_set(p, [1]).constants == frozenset({1})
    with pytest.raises(ValueError):
        constant_set(p, [3])


def test_cell_of_examples():
    cs = constant_set(pattern_from_text("213"), [1])
    assert cells_of(cs) == {OrbitCell(1, 0): [0], OrbitCell(1, 1): [2]}
    free = constant_set(pattern_from_text("3142"), [])
    assert cells_of(free) == {OrbitCell(0, 0): [0, 1, 2, 3]}


def _all_constant_sets(n):
    for p in enumerate_patterns(n):
        for k in range(n + 1):
            for cc in combinations(range(n), k):
                yield constant_set(p, cc)


def test_cells_partition_points():
    for cs in _all_constant_sets(4):
        cells = cells_of(cs)
        pts = sorted(chain.from_iterable(cells.values()))
        assert pts == sorted(set(range(4)) - cs.constants)
        k = len(cs.constants)
        for cell in cells:
            assert 0 <= cell.row <= k and 0 <= cell.col <= k


def test_cellmates_sit_alike_relative_to_constants():
    for cs in _all_constant_sets(4):
        r = cs.pattern.ranks
        for pts in cells_of(cs).values():
            for x, y in combinations(pts, 2):
                for c in cs.constants:
                    assert (c < x) == (c < y)
                    assert (r[c] < r[x]) == (r[c] < r[y])


def test_words_behave_like_their_behavior():
    for word in WORDS:
        b = behavior_of_word(word)
        for cs in _all_constant_sets(4):
            report = check_canonical(cs, _word_sample(word, cs.pattern))
            assert report.canonical, (word, cs)
            for rep in chain(report.cells.values(), report.cell_pairs.values()):
                assert b in rep.behaviors, (word, cs)


def test_check_canonical_skips_unmapped_points():
    # constant 3 splits 123456 into cells (0,0) = {1,2} and (1,1) = {4,5,6}
    p = pattern_from_text("123456")
    cs = constant_set(p, [2])
    assert set(cells_of(cs)) == {OrbitCell(0, 0), OrbitCell(1, 1)}
    report = check_canonical(cs, Sample(p, p, {2: 2, 3: 3, 5: 5}))
    assert set(report.cells) == {OrbitCell(1, 1)}
    assert report.cells[OrbitCell(1, 1)].points == (3, 5)
    assert report.cell_pairs == {}
    assert report.canonical and not report.mixed


def test_check_canonical_of_restricted_double_reversal():
    # restriction of rev/rev to the non-constant points stays canonical
    p = pattern_from_text("2413")
    res = apply_word([REVREV], p)
    sample = Sample(p, res.pattern, {k: res.mapping[k] for k in (1, 2, 3)})
    report = check_canonical(constant_set(p, [0]), sample)
    assert report.canonical and not report.mixed
    assert set(report.cells) == {OrbitCell(1, 1), OrbitCell(0, 1)}
    for rep in chain(report.cells.values(), report.cell_pairs.values()):
        assert rep.consistent
        assert NAMED_BEHAVIORS["rev/rev"] in rep.behaviors


def test_check_canonical_accepts_word_restrictions():
    cs_points = (1, 2, 3)
    for word in WORDS:
        b = behavior_of_word(word)
        for p in enumerate_patterns(4):
            res = apply_word(word, p)
            sample = Sample(p, res.pattern,
                            {k: res.mapping[k] for k in cs_points})
            report = check_canonical(constant_set(p, [0]), sample)
            assert report.canonical
            for rep in report.cells.values():
                if rep.observed:
                    assert b in rep.behaviors
            for rep in report.cell_pairs.values():
                if rep.observed:
                    assert b in rep.behaviors
    # Every move, mapped in full, on every pattern of size 2..6.  A plain
    # move is canonical with no constants and explained by its behavior.
    patterns = [p for n in range(2, 7) for p in enumerate_patterns(n)]
    for g in (REV1, REV2, REVREV, SW):
        b = behavior_of_word([g])
        for p in patterns:
            report = check_canonical(constant_set(p, []), _word_sample([g], p))
            assert report.canonical, (g, p)
            for rep in report.cells.values():
                if rep.observed:
                    assert b in rep.behaviors, (g, p)
    # A turn is canonical once a constant sits at its cut: point k for
    # t1@k, the point of second-order rank k for t2@k.  Without it, only
    # 60 of the 8,332 turns are.
    turns = free = 0
    for p in patterns:
        for k in range(1, p.n):
            for g, cut in ((turn_first(k), k), (turn_second(k), p.ranks.index(k))):
                sample = _word_sample([g], p)
                assert check_canonical(constant_set(p, [cut]), sample).canonical, (g, p)
                turns += 1
                free += check_canonical(constant_set(p, []), sample).canonical
    assert (turns, free) == (8332, 60)


def test_check_canonical_flags_mixed_cells():
    # one cell kept as is, the sibling cell with its second order reversed
    source = pattern_from_text("12345")
    image = pattern_from_text("12354")
    sample = Sample(source, image, {0: 0, 1: 1, 3: 3, 4: 4})
    report = check_canonical(constant_set(source, [2]), sample)
    assert report.canonical  # each cell alone is explained by one behavior
    assert report.mixed      # but by different ones
    low = report.cells[OrbitCell(0, 0)]
    high = report.cells[OrbitCell(1, 1)]
    assert low.observed == {T1: T1}
    assert high.observed == {T1: T2}
    assert not set(low.behaviors) & set(high.behaviors)


def test_check_canonical_reports_counterexample():
    source = pattern_from_text("123456")
    image = pattern_from_text("123465")
    sample = Sample(source, image, {k: k for k in (3, 4, 5)})
    report = check_canonical(constant_set(source, [2]), sample)
    assert not report.canonical
    rep = report.cells[OrbitCell(1, 1)]
    assert not rep.consistent
    assert rep.counterexample == ((3, 4), (4, 5))
    assert not rep.behaviors


def test_check_canonical_requires_injectivity():
    p = pattern_from_text("123")
    with pytest.raises(ValueError):
        check_canonical(constant_set(p, []),
                        Sample(p, p, {0: 0, 1: 0, 2: 2}))


@pytest.mark.parametrize("bad", [3, -1])
def test_check_canonical_rejects_image_points_out_of_range(bad):
    p = pattern_from_text("123")
    with pytest.raises(ValueError, match="out of range"):
        check_canonical(constant_set(p, []), Sample(p, p, {0: 0, 1: bad}))


def test_single_point_cells_match_all_behaviors():
    p = pattern_from_text("21")
    sample = Sample(p, p, {0: 0, 1: 1})
    report = check_canonical(constant_set(p, []), sample)
    cell = report.cells[OrbitCell(0, 0)]
    assert cell.points == (0, 1)
    # both orders agree pairwise with the identity only
    assert Behavior(T1, T2) in cell.behaviors
    singles = check_canonical(constant_set(p, [1]),
                              Sample(p, p, {0: 0}))
    only = singles.cells[OrbitCell(1, 0)]
    assert only.observed == {}
    assert len(only.behaviors) == len(ALL_BEHAVIORS)


# ---------------------------------------------------------------------------
# Differential check against the ordered pair_type scan.  The oracle below
# walks every pair in order, as check_canonical did before its key-set pass.

def _scan(sample, pairs):
    observed, first_pair, counterexample, seen = {}, {}, None, set()
    for x, y in pairs:
        src = pair_type(sample.source, x, y)
        dst = pair_type(sample.image, sample.mapping[x], sample.mapping[y])
        seen.add((src, dst))
        if src not in observed:
            observed[src] = dst
            first_pair[src] = (x, y)
        elif observed[src] != dst and counterexample is None:
            counterexample = (first_pair[src], (x, y))
    behaviors = tuple(b for b in ALL_BEHAVIORS
                      if all(extend(b)[s] == d for s, d in seen))
    return observed, behaviors, counterexample is None and bool(behaviors), counterexample


def _scan_report(cs, sample):
    grouped = {}
    for cell, pts in sorted(cells_of(cs).items()):
        pts = tuple(p for p in pts if p in sample.mapping)
        if pts:
            grouped[cell] = pts
    images = [sample.mapping[p] for pts in grouped.values() for p in pts]
    if len(set(images)) != len(images):
        raise ValueError("sample not injective on non-constant points")
    cells = {cell: CellReport(pts, *_scan(sample, combinations(pts, 2)))
             for cell, pts in grouped.items()}
    cell_pairs = {(a, b): CellReport((grouped[a], grouped[b]),
                                     *_scan(sample, product(grouped[a], grouped[b])))
                  for a, b in combinations(grouped, 2)}
    canonical = all(c.consistent for c in chain(cells.values(), cell_pairs.values()))
    sampled = [set(c.behaviors) for c in cells.values() if c.observed]
    mixed = bool(sampled) and all(c.consistent for c in cells.values()) \
        and not set.intersection(*sampled)
    return Report(cells, cell_pairs, canonical, mixed)


@st.composite
def _samples(draw):
    """A pattern of 2-60 points, 0-4 constants and a partial injective map.

    The map is random (mostly non-canonical), a symmetry word (canonical)
    or a symmetry word with the images of two points swapped.
    """
    n = draw(st.integers(2, 60))
    source = Pattern(draw(st.permutations(range(n))))
    constants = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    kind = draw(st.sampled_from(("random", "word", "planted")))
    if kind == "random":
        size = n + draw(st.integers(0, 3))
        image = Pattern(draw(st.permutations(range(size))))
        mapping = dict(enumerate(draw(st.permutations(range(size)))[:n]))
    else:
        res = apply_word(draw(st.sampled_from(WORDS)), source)
        image, mapping = res.pattern, dict(enumerate(res.mapping))
        if kind == "planted":
            x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            mapping[x], mapping[y] = mapping[y], mapping[x]
    if draw(st.booleans()):
        kept = draw(st.sets(st.integers(0, n - 1)))
        mapping = {p: q for p, q in mapping.items() if p in kept}
    return constant_set(source, constants), Sample(source, image, mapping)


# No shrink phase: shrinking a failing sample of up to 60 points takes
# minutes, while the unshrunk sample already names the fault.
_UNSHRUNK = settings(max_examples=300, deadline=None,
                     phases=(Phase.explicit, Phase.reuse, Phase.generate))


@_UNSHRUNK
@given(_samples())
def test_check_canonical_matches_ordered_scan(case):
    cs, sample = case
    assert check_canonical(cs, sample) == _scan_report(cs, sample)


def _rows(sample, pts):
    src, img, m = sample.source.ranks, sample.image.ranks, sample.mapping
    return [(p, src[p], m[p], img[m[p]]) for p in pts]


def _observe_between(sample, a, b):
    """_observe on the pairs a x b, in product order."""
    rows = _rows(sample, a + b)
    return _observe(rows, _above(rows), range(len(a)), range(len(a), len(rows)))


def _observe_within(sample, a):
    """_observe on the pairs inside a, in combinations order."""
    rows = _rows(sample, a)
    return _observe(rows, _above(rows), range(len(a)))


@_UNSHRUNK
@given(_samples(), st.randoms(use_true_random=False))
def test_observe_matches_ordered_scan_on_any_point_sets(case, rng):
    # Two cells of check_canonical never hold a T3 pair in cell order
    # (a lower row or column comes first), so the mask kernel is also
    # compared on two arbitrary disjoint point sets, where all four
    # source types occur, each listed in any order.
    _, sample = case
    pts = sorted(sample.mapping)
    rng.shuffle(pts)
    a, b = pts[:len(pts) // 2], pts[len(pts) // 2:]
    if rng.random() < 0.5:
        a, b = sorted(a), sorted(b)
    assert _observe_between(sample, a, b) == _scan(sample, product(a, b))
    assert _observe_within(sample, a) == _scan(sample, combinations(a, 2))


def test_observe_covers_all_four_source_types():
    # 21354 split as {p1, p5} x {p2, p3, p4} holds all four pair types,
    # and the image 12453 moves two T3 pairs differently.  Inside
    # {p1, p5, p2}, listed out of order, pairs of three source types occur
    # and the image agrees on each.
    source, image = pattern_from_text("21354"), pattern_from_text("12453")
    sample = Sample(source, image, {p: p for p in range(5)})
    a, b = [0, 4], [1, 2, 3]
    want = _scan(sample, product(a, b))
    assert set(want[0]) == set(PAIR_TYPES) and want[3] == ((4, 1), (4, 2))
    assert _observe_between(sample, a, b) == want
    within = _scan(sample, combinations([0, 4, 1], 2))
    assert len(within[0]) == 3 and within[2]
    assert _observe_within(sample, [0, 4, 1]) == within



# Each key keeps its first pair: the first row that has it and the lowest
# partner bit of its part.  Each case pins that order against a fault.
@pytest.mark.parametrize("source,image,a,b,observed,counterexample", [
    # (p1,p2) opens T2 -> T1 and T1 first shows at (p1,p5) as T1 -> T1;
    # the first conflict, (p2,p3) moved to T2, is on T1, and a later one
    # on T2 at (p2,p4) must not replace it.
    pytest.param("42315", "15324", range(5), None, {T2: T1, T1: T1},
                 ((0, 4), (1, 2)), id="conflict-on-type-first-seen-later"),
    # p1's pairs are all T2: three move to T1, the last, (p1,p5), to T2.
    # The key T2 -> T1 has partners p2..p4 in row p1, so its first pair
    # is its lowest one.
    pytest.param("51243", "25341", range(5), None, {T2: T1, T1: T2},
                 ((0, 1), (0, 4)), id="conflict-in-first-pairs-row"),
    # {p1,p2,p3} x {p4,p5}: (p1,p4) opens T1 -> T2, T2 first shows at
    # (p1,p5) as T2 -> T2, and (p2,p4), moved to T1, is the first pair to
    # conflict with it.
    pytest.param("35142", "51234", range(3), range(3, 5), {T1: T2, T2: T2},
                 ((0, 4), (1, 3)), id="cell-pair-first-pair-not-a0-b0"),
])
def test_observe_first_pairs(source, image, a, b, observed, counterexample):
    sample = Sample(pattern_from_text(source), pattern_from_text(image),
                    {p: p for p in range(len(source))})
    if b is None:
        got = _observe_within(sample, list(a))
        assert got == _scan(sample, combinations(a, 2))
    else:
        got = _observe_between(sample, list(a), list(b))
        assert got == _scan(sample, product(a, b))
    assert got[0] == observed and got[3] == counterexample
