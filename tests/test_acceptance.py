"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Criterion 5 checks that the computed table reproduces every published
cell except one the published table refutes itself.  The published row
de claims r1, but its subgroup row d does not, and a group cannot keep
an invariant that one of its subgroups loses.  Such a cell passes only
with that contradicting subgroup row and a witness; its line prints
both.  Every witness of the table, that one included, must replay in
tests/witness_oracle.py with a move certainly in its group.
"""

import time
from itertools import chain, combinations, product

import pytest

from permsym import behaviors, lattice, letters, preservation, ramsey, relations
from permsym.patterns import (
    pattern_from_text, pattern_to_text, enumerate_patterns, T1, T2, T3, T4,
)
from permsym.generators import (
    REV1, REV2, REVREV, SW,
    turn_first, turn_second, apply, apply_word, inverse, word_to_text,
)
from lattice_expectations import PROPER_LABELS
from witness_oracle import points_text, replay_fault


def _report(num, ok, detail):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _fresh_lattice_timing():
    # The lattice is derived from the letter scan, so clear its caches too:
    # every cached function of both modules (state space, generator and
    # move tables, truth rows, witnesses, masks, labels), so none is warm.
    caches = [f for module in (letters, lattice) for f in vars(module).values()
              if hasattr(f, "cache_clear")]
    assert {letters._space, letters._generator_table, letters._truth,
            lattice._all_closed} <= set(caches)
    for f in caches:
        f.cache_clear()
    start = time.perf_counter()
    elements = lattice.enumerate_lattice()
    return elements, time.perf_counter() - start


def test_criterion_01_lattice_count():
    elements, elapsed = _fresh_lattice_timing()
    ok = len(elements) == 39 and elapsed < 1.0
    _report(1, ok, "%d closed sets in %.3fs (bound 1s)" % (len(elements), elapsed))


def test_criterion_02_labels_match_published_rows():
    got = {x.name for x in lattice.enumerate_lattice()} - {"bottom", "sym"}
    want = set(PROPER_LABELS)
    order, _ = preservation.golden_table()
    ok = got == want and set(order) == want and len(got) == 37
    extra = sorted(got - want) + sorted(want - got)
    _report(2, ok, "37 proper labels match the published rows"
            if ok else "label mismatch: %s" % extra)


def test_criterion_03_scramble_families_number_five():
    elements = lattice.enumerate_lattice()
    with_i = sorted(x.name for x in elements if "i" in x.members)
    with_j = sorted(x.name for x in elements if "j" in x.members)
    ok = with_i == ["cdi", "ci", "di", "i", "sym"] and \
        with_j == ["abj", "aj", "bj", "j", "sym"]
    _report(3, ok, "i-sets %s, j-sets %s" % (with_i, with_j))


def test_criterion_04_joins_of_basic_letters():
    letters = "abcdij"
    hits = set()
    for k in range(len(letters) + 1):
        for combo in combinations(letters, k):
            hits.add(lattice.closure(combo))
    _report(4, len(hits) == 25, "%d distinct closures of subsets of {a,b,c,d,i,j}"
            % len(hits))


def _cell_text(d):
    return "%s/%s golden=%d computed=%s" % (
        d.label, d.relation, d.golden,
        "missing" if d.computed is None else int(d.computed))


def _contradicting_rows(golden, label, relation):
    """Published rows of subgroups of `label` that do not preserve `relation`.

    A row whose label letters are a proper subset of `label`'s generates
    a subgroup, so a 0 there refutes a 1 in row `label`.
    """
    order, table = golden
    k = relations.RELATION_NAMES.index(relation)
    return [other for other in order
            if set(other) < set(label) and not table[other][k]]


def _table_faults(diffs, witnesses, golden):
    """Mismatches that are not published cells the published table refutes,
    and witnesses that do not replay; one line per fault.

    A mismatch passes only when it is golden=1, computed=0, some subgroup
    row of the published table has 0 in its column, and it has a witness.
    """
    faults, cells = [], []
    for d in diffs:
        cell = "%s/%s" % (d.label, d.relation)
        if (d.golden, d.computed) != (True, False):
            faults.append(
                "%s is not a published 1 computed as 0" % _cell_text(d))
            continue
        if not _contradicting_rows(golden, d.label, d.relation):
            faults.append("%s has no published subgroup row with 0" % cell)
        cells.append((d.label, d.relation))
    for label, rel in dict.fromkeys(cells + list(witnesses)):
        replay = replay_fault(label, rel, witnesses.get((label, rel)))
        if replay:
            faults.append("%s/%s witness: %s" % (label, rel, replay))
    return faults


def test_criterion_05_table_reproduction():
    preservation.letter_witness.cache_clear()
    preservation.golden_table.cache_clear()
    start = time.perf_counter()
    table = preservation.full_table()
    elapsed = time.perf_counter() - start
    golden = preservation.golden_table()
    diffs = preservation.diff_golden(table.rows, golden)
    faults = _table_faults(diffs, table.witnesses, golden)
    # A false cell without a witness would be an unconfirmed negative.
    unconfirmed = [
        (row.label, rel) for row in table.rows
        for rel, bit in zip(relations.RELATION_NAMES, row.bits)
        if not bit and table.witnesses.get((row.label, rel)) is None]
    ok = not faults and not unconfirmed and elapsed < 300.0
    detail = "%d mismatches, %d unconfirmed, %d witnesses replayed, " \
        "%d faults, %.1fs (bound 300s)" % (
            len(diffs), len(unconfirmed), len(table.witnesses), len(faults), elapsed)
    for d in diffs:
        w = table.witnesses.get((d.label, d.relation))
        detail += "; " + _cell_text(d)
        if w:
            detail += " witness[%s on %s at %s -> %s at %s]" % (
                " ; ".join(w.moves), pattern_to_text(w.pattern),
                points_text(w.points), pattern_to_text(w.image_pattern),
                points_text(w.image_points))
        rows = _contradicting_rows(golden, d.label, d.relation)
        if rows:
            detail += " refuted by published %s (subgroup of %s)" % (
                ",".join("%s/%s=0" % (r, d.relation) for r in rows), d.label)
    for f in faults:
        detail += "; FAULT %s" % f
    _report(5, ok, detail)


def _plant(fault):
    """Criterion 5's inputs with one planted fault: (diffs, witnesses, golden)."""
    table = preservation.full_table()
    rows = list(table.rows)
    witnesses = dict(table.witnesses)
    order, published = preservation.golden_table()
    published = dict(published)
    if fault in ("extra 1->0", "extra 0->1"):
        label, rel = ("a", "lt1") if fault == "extra 1->0" else ("a", "lt2")
        k = relations.RELATION_NAMES.index(rel)
        for i, row in enumerate(rows):
            if row.label == label:
                bits = list(row.bits)
                bits[k] = not bits[k]
                rows[i] = preservation.PreservationRow(label, tuple(bits))
    elif fault == "witness does not replay":
        w = witnesses[("de", "r1")]
        witnesses[("de", "r1")] = w._replace(image_points=w.image_points[::-1])
    elif fault.startswith("move "):
        witnesses[("de", "r1")] = witnesses[("de", "r1")]._replace(moves=(fault[5:],))
    elif fault == "no published contradiction":
        k = relations.RELATION_NAMES.index("r1")
        bits = list(published["d"])
        bits[k] = True
        published["d"] = tuple(bits)
    golden = (order, published)
    return preservation.diff_golden(rows, golden), witnesses, golden


@pytest.mark.parametrize("fault, expected", [
    ("extra 1->0", ["a/lt1 has no published subgroup row with 0",
                    "a/lt1 witness: no witness"]),
    ("extra 0->1", [
        "a/lt2 golden=0 computed=1 is not a published 1 computed as 0"]),
    ("witness does not replay", [
        "de/r1 witness: replay gives 321 at p3,p1,p2"]),
    # d/r1 = 1 is itself a new mismatch, with no proper subgroup row.
    ("no published contradiction", [
        "d/r1 has no published subgroup row with 0",
        "de/r1 has no published subgroup row with 0"]),
    ("move i@132", [
        "de/r1 witness: move i@132 of letter i is not certainly in de"]),
    ("move j@12", [
        "de/r1 witness: move does not parse: scramble target 12 has size 2, not 3"]),
])
def test_criterion_05_rejects_planted_fault(fault, expected):
    assert _table_faults(*_plant(fault)) == expected


def test_criterion_06_rows_distinguish_groups():
    table = preservation.full_table()
    bits = {row.label: row.bits for row in table.rows}
    distinct = len(set(bits.values())) == 39
    ok = distinct and all(bits["bottom"]) and not any(bits["sym"])
    _report(6, ok, "39 pairwise distinct rows, bottom all true, sym all false"
            if ok else "distinct=%s bottom=%s sym=%s" % (
                distinct, all(bits["bottom"]), not any(bits["sym"])))


def test_criterion_07_behavior_census():
    counts = {}
    for x in (T1, T2, T3, T4):
        for y in (T1, T2, T3, T4):
            bc = behaviors.classify(behaviors.Behavior(x, y))
            key = bc.kind if bc.kind == "named" else "order-%d" % bc.order
            counts[key] = counts.get(key, 0) + 1
    ok = counts == {"named": 8, "order-1": 4, "order-2": 4}
    _report(7, ok, "census %s" % sorted(counts.items()))


def test_criterion_08_dihedral_facts():
    subs = behaviors.subgroups()
    group_ok = len(behaviors.NAMED_BEHAVIORS) == 8 and len(subs) == 10
    target = lattice.find("bf").members
    inside = sorted(x.name for x in lattice.enumerate_lattice()
                    if x.members and x.members < target)
    ok = group_ok and inside == ["b", "bd", "d", "f"]
    _report(8, ok, "order 8, %d subgroups; bf proper nontrivial subsets %s"
            % (len(subs), inside))


def _generator_pool(n):
    pool = [REV1, REV2, REVREV, SW]
    pool.extend(turn_first(k) for k in range(n + 1))
    pool.extend(turn_second(k) for k in range(n + 1))
    return pool


def test_criterion_09_generator_laws():
    failures = []
    patterns = list(chain.from_iterable(
        enumerate_patterns(n) for n in range(6)))
    for p in patterns:
        identity = tuple(range(p.n))
        for g in (REV1, REV2, REVREV, SW):
            twice = apply_word([g, g], p)
            if twice.pattern != p or twice.mapping != identity:
                failures.append(("involution", word_to_text([g]), p))
        for g in _generator_pool(p.n):
            undone = apply_word([g, inverse(g, p.n)], p)
            if undone.pattern != p or undone.mapping != identity:
                failures.append(("inverse", word_to_text([g]), p))
        for g1 in _generator_pool(p.n):
            step = apply(g1, p)
            for g2 in _generator_pool(p.n):
                joined = apply_word([g1, g2], p)
                chained = apply(g2, step.pattern)
                mapping = tuple(chained.mapping[m] for m in step.mapping)
                if (joined.pattern, joined.mapping) != (chained.pattern, mapping):
                    failures.append(("concatenation", (g1, g2), p))
    words = [[]]
    for k in range(1, 5):
        words.extend(list(w) for w in product((REV1, REV2, REVREV, SW), repeat=k))
    for w in words:
        folded = behaviors.IDENTITY
        for g in w:
            folded = behaviors.compose(folded, behaviors.behavior_of_word([g]))
        if folded != behaviors.behavior_of_word(w):
            failures.append(("homomorphism", word_to_text(w), None))
    _report(9, not failures,
            "involution/inverse/concatenation laws on %d patterns, "
            "homomorphism on %d words%s" % (
                len(patterns), len(words),
                "" if not failures else "; first failure %r" % (failures[0],)))


def test_criterion_10_ramsey_desk_scale():
    point = pattern_from_text("1")
    up = pattern_from_text("12")
    checks = []
    start = time.perf_counter()
    checks.append(ramsey.check_ramsey_witness(
        pattern_from_text("123"), point, up) is True)
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    checks.append(ramsey.check_ramsey_witness(up, point, up) is False)
    t2 = time.perf_counter() - start
    start = time.perf_counter()
    result = ramsey.search_witness(point, up, 4)
    t3 = time.perf_counter() - start
    checks.append(result.pattern == pattern_from_text("123"))
    ok = all(checks) and max(t1, t2, t3) < 1.0
    _report(10, ok, "checks %s in %.3fs/%.3fs/%.3fs (bound 1s each)"
            % (checks, t1, t2, t3))
