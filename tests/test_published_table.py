"""The published preservation table checked against itself.

The published rows are read from the golden CSV with ``csv`` alone, and
the 39 closed letter sets from ``lattice_expectations``, which
``test_lattice`` pins to the computed lattice.  Nothing here imports
the engine that computes the table (``letters``, ``lattice``,
``preservation`` or ``generators``), so each fact below is one the
published table states of itself.  Of its 740 cells, only ``de/r1``
breaks one: the row is not the AND of its letter rows there, and its
image under the exchange of the orders, ``be/r1``, reads 0.
"""

import ast
import csv
from functools import reduce
from itertools import combinations
from pathlib import Path

from lattice_expectations import EXPECTED_MEMBERS

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


def _and(letters):
    """The relations every letter in the set keeps (all 20 for no letter)."""
    return reduce(frozenset.__and__, (KEPT[x] for x in letters), frozenset(RELATIONS))


def _swaps(*pairs):
    """The involution exchanging each pair and fixing everything else."""
    return dict(pairs) | {y: x for x, y in pairs}


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
    letters = _swaps(("a", "c"), ("b", "d"), ("i", "j"))
    relations = _swaps(("lt1", "lt2"), ("btw1", "btw2"), ("cyc1", "cyc2"),
                       ("sep1", "sep2"), ("r5", "r6"))
    assert len(set(relations) | set(RELATIONS)) == 20
    assert _breaks(letters, relations, RELATIONS) == [("de", "r1", "be", "r1")]


def test_reversing_the_first_order_maps_the_table_to_itself():
    relations = _swaps(("up", "dow"), ("r3", "r8"))
    kept_columns = [r for r in RELATIONS if r not in ("r5", "r6")]
    assert _breaks(_swaps(("f", "g")), relations, kept_columns) == []
