"""The published preservation table checked against itself.

The published rows are read from the golden CSV with ``csv`` alone, and
the 39 closed letter sets from ``lattice_expectations``, which
``test_lattice`` pins to the computed lattice.  Nothing here imports
the engine that computes the table (``letters``, ``lattice``,
``preservation`` or ``generators``), so each fact below is one the
published table states of itself.  Of its 740 cells, only ``de/r1``
breaks one: the row is not the AND of its letter rows there, and its
image under the exchange of the orders, ``be/r1``, reads 0.

The two symmetries of the orders are stated by hand, as letter and
relation maps.  The relation maps are checked on the relations' truth
tables through ``relations.evaluate`` and an order move of this
module's own, and the letter maps against every automorphism of the
lattice of the 39 closed sets.
"""

import ast
import csv
from functools import cache, reduce
from itertools import combinations, permutations
from pathlib import Path

from lattice_expectations import EXPECTED_MEMBERS
from permsym.patterns import Pattern
from permsym.relations import evaluate

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS.parent / "src" / "permsym" / "data" / "golden_table.csv"
LETTERS = "abcdefghij"
ENGINE = {"letters", "lattice", "preservation", "generators"}


def _published():
    """The CSV's relation names and, per row label, the relations it keeps."""
    with open(GOLDEN, newline="") as f:
        header, *rows = csv.reader(f)
    relations = header[1:]
    return relations, {label: frozenset(r for r, v in zip(relations, cells) if v == "1")
                       for label, *cells in rows}


RELATIONS, KEPT = _published()
CLOSED_SETS = {frozenset(m): label for label, m in EXPECTED_MEMBERS.items()}
ARITY = {r: k for k, names in ((2, "lt1 lt2 st up dow"),
                               (3, "btw1 cyc1 btw2 cyc2 r1 r2 r3 r5 r6 r7 r8"),
                               (4, "sep1 sep2 r4 r9"))
         for r in names.split()}


def _and(letters):
    """The relations every letter in the set keeps (all 20 for no letter)."""
    return reduce(frozenset.__and__, (KEPT[x] for x in letters), frozenset(RELATIONS))


def _swaps(*pairs):
    """The involution exchanging each pair and fixing everything else."""
    return dict(pairs) | {y: x for x, y in pairs}


# Exchanging the two orders (sw) and reversing the first (rev1).
SW_LETTERS = _swaps(("a", "c"), ("b", "d"), ("i", "j"))
SW_RELATIONS = _swaps(("lt1", "lt2"), ("btw1", "btw2"), ("cyc1", "cyc2"),
                      ("sep1", "sep2"), ("r5", "r6"))
REV1_LETTERS = _swaps(("f", "g"))
REV1_RELATIONS = _swaps(("up", "dow"), ("r3", "r8"))


def _sw(ranks, t):
    """Point x goes to p[x]: its rank becomes its position, so p inverts."""
    inverse = [0] * len(ranks)
    for x, r in enumerate(ranks):
        inverse[r] = x
    return tuple(inverse), tuple(ranks[x] for x in t)


def _rev1(ranks, t):
    """Point x goes to k-1-x and keeps its rank."""
    k = len(ranks)
    return ranks[::-1], tuple(k - 1 - x for x in t)


def _table(name, move):
    """The truth table of `name` at its arity, every k-type moved by `move`."""
    k = ARITY[name]
    return {move(ranks, t): evaluate(name, Pattern(ranks), t)
            for ranks in permutations(range(k)) for t in permutations(range(k))}


def _holds(table, value=True):
    """The k-types where the table reads `value`."""
    return frozenset(key for key, v in table.items() if v == value)


@cache
def _forms(name):
    """The k-types where `name` holds, or fails, under every argument order."""
    table = _table(name, lambda ranks, t: (ranks, t))
    return {frozenset((ranks, tuple(t[i] for i in order)) for ranks, t in _holds(table, value))
            for order in permutations(range(ARITY[name])) for value in (True, False)}


def _images(move):
    """Each relation -> the relations its image under `move` is, up to
    argument order and complement, on truth tables at arity."""
    images = {r: _holds(_table(r, move)) for r in RELATIONS}
    return {r: {s for s in RELATIONS if ARITY[s] == ARITY[r] and images[r] in _forms(s)}
            for r in RELATIONS}


def _automorphisms(sets):
    """Every bijection of `sets` onto itself that keeps inclusion both ways.

    The sets are placed smallest first, each onto a set with as many
    sets below and above it that agrees in inclusion with every set
    placed so far; that agreement also keeps the map one-to-one, since
    inclusion both ways is equality.
    """
    shape = {a: (sum(x < a for x in sets), sum(a < x for x in sets)) for a in sets}
    order = sorted(sets, key=len)
    found = []

    def extend(image):
        if len(image) == len(order):
            found.append(dict(image))
            return
        a = order[len(image)]
        for b in sets:
            if shape[b] == shape[a] and all((a <= x) == (b <= y) and (x <= a) == (y <= b)
                                            for x, y in image.items()):
                image[a] = b
                extend(image)
                del image[a]

    extend({})
    return found


def _breaks(letter_map, relation_map, relations):
    """Each published 1 whose image under the two maps is a published 0.

    A row's image is the closed set of its members' images.  The maps
    are involutions, so a cell and its image that disagree show once.
    """
    image = {label: CLOSED_SETS[frozenset(letter_map.get(x, x) for x in members)]
             for label, members in EXPECTED_MEMBERS.items() if label in KEPT}
    assert sorted(image.values()) == sorted(KEPT)
    return [(label, r, image[label], relation_map.get(r, r))
            for label in KEPT for r in relations
            if r in KEPT[label] and relation_map.get(r, r) not in KEPT[image[label]]]


def test_imports_none_of_the_engine():
    imported = set()
    for path in (Path(__file__), TESTS / "lattice_expectations.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(node.module + "." + alias.name for alias in node.names)
    assert not {part for name in imported for part in name.split(".")} & ENGINE


def test_published_rows_are_the_proper_labels():
    assert len(RELATIONS) == 20
    assert set(KEPT) == set(EXPECTED_MEMBERS) - {"bottom", "sym"}


def test_letter_rows_close_to_the_39_member_sets():
    closed = {frozenset(x for x in LETTERS if KEPT[x] >= _and(subset))
              for k in range(len(LETTERS) + 1) for subset in combinations(LETTERS, k)}
    assert closed == set(CLOSED_SETS)


def test_each_row_is_the_and_of_its_letter_rows_but_de_r1():
    breaks = [(label, r) for label in KEPT for r in RELATIONS
              if (r in KEPT[label]) != (r in _and(EXPECTED_MEMBERS[label]))]
    assert breaks == [("de", "r1")]
    assert "r1" in KEPT["de"]


def test_exchanging_the_orders_maps_the_table_to_itself_but_de_r1():
    assert len(set(SW_RELATIONS) | set(RELATIONS)) == 20
    assert _breaks(SW_LETTERS, SW_RELATIONS, RELATIONS) == [("de", "r1", "be", "r1")]


def test_reversing_the_first_order_maps_the_table_to_itself():
    kept_columns = [r for r in RELATIONS if r not in ("r5", "r6")]
    assert _breaks(REV1_LETTERS, REV1_RELATIONS, kept_columns) == []


def test_relation_images_are_exact_on_truth_tables():
    assert set(ARITY) == set(RELATIONS)
    assert _images(_sw) == {r: {SW_RELATIONS.get(r, r)} for r in RELATIONS}
    assert _images(_rev1) == {r: set() if r in ("r5", "r6") else {REV1_RELATIONS.get(r, r)}
                              for r in RELATIONS}


def test_the_lattice_has_only_the_automorphisms_of_the_orders():
    sets = list(CLOSED_SETS)
    induced = [{a: frozenset(letters.get(x, x) for x in a) for a in sets}
               for letters in ({}, SW_LETTERS, REV1_LETTERS, SW_LETTERS | REV1_LETTERS)]
    found = _automorphisms(sets)
    assert len(found) == 4
    assert all(m in found for m in induced)
