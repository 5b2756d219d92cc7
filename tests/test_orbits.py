from itertools import chain, combinations

import pytest

from permsym.patterns import pattern_from_text, enumerate_patterns, T1, T2
from permsym.generators import REV1, REV2, REVREV, SW, apply_word
from permsym.behaviors import Behavior, NAMED_BEHAVIORS, behavior_of_word
from permsym.orbits import (
    ALL_BEHAVIORS, OrbitCell, Sample,
    constant_set, cell_of, cells_of, check_canonical,
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
    assert cell_of(cs, 0) == OrbitCell(1, 0)
    assert cell_of(cs, 2) == OrbitCell(1, 1)
    free = constant_set(pattern_from_text("3142"), [])
    for p in range(4):
        assert cell_of(free, p) == OrbitCell(0, 0)


def test_cell_of_errors():
    cs = constant_set(pattern_from_text("213"), [1])
    with pytest.raises(ValueError):
        cell_of(cs, 1)
    with pytest.raises(ValueError):
        cell_of(cs, 5)


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
