"""Preservation table: which symmetry groups keep which relations invariant.

A closed letter set preserves a relation exactly when each member letter
does, so each row combines the letter scan of ``permsym.letters``:
positive cells hold at every size, and every negative cell carries a
one-move witness.  Computed rows are diffed against the published table.
"""

import os
from collections import namedtuple
from functools import lru_cache

from . import relations
from .lattice import enumerate_lattice
from .letters import letter_witness

PreservationRow = namedtuple("PreservationRow", ["label", "bits"])
TableResult = namedtuple("TableResult", ["rows", "witnesses"])
CellDiff = namedtuple("CellDiff", ["label", "relation", "golden", "computed"])


def find_witness(members, relation):
    """Witness of the first member letter, in sorted order, that has one.

    None when every member letter, and so the group, preserves the relation.
    An unknown relation raises ValueError, even for the empty letter set.
    """
    relations.arity(relation)
    for letter in sorted(members):
        w = letter_witness(letter, relation)
        if w is not None:
            return w
    return None


def full_table():
    """Rows for all 39 lattice elements, with witnesses for false cells."""
    rows = []
    witnesses = {}
    for element in enumerate_lattice():
        bits = []
        for rel in relations.RELATION_NAMES:
            w = find_witness(element.members, rel)
            bits.append(w is None)
            if w is not None:
                witnesses[(element.name, rel)] = w
        rows.append(PreservationRow(element.name, tuple(bits)))
    return TableResult(tuple(rows), witnesses)


@lru_cache(maxsize=1)
def golden_table():
    """The published 37-row table: (ordered labels, label -> bit tuple)."""
    here = os.path.dirname(__file__)
    return load_golden(os.path.join(here, "data", "golden_table.csv"))


def load_golden(path):
    """Golden rows from a CSV file: (ordered labels, label -> bit tuple)."""
    import csv  # only table commands read the golden CSV
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError("cannot read golden table: %s" % exc) from None
    reader = csv.reader(text.strip().splitlines())
    header = next(reader, [])
    if tuple(header) != ("label",) + relations.RELATION_NAMES:
        raise ValueError("golden table header mismatch: %r" % (header,))
    order = []
    table = {}
    for row in reader:
        if len(row) != 21:
            raise ValueError("golden row needs 21 fields: %r" % (row,))
        label, bits = row[0], row[1:]
        if label in table:
            raise ValueError("duplicate golden label: %r" % (label,))
        if any(b not in ("0", "1") for b in bits):
            raise ValueError("golden bits must be 0/1: %r" % (row,))
        order.append(label)
        table[label] = tuple(b == "1" for b in bits)
    return tuple(order), table


def diff_golden(computed, golden=None):
    """Cells where computed rows disagree with the golden table.

    Rows absent from `computed` report all 20 cells with computed=None.
    """
    order, table = golden if golden is not None else golden_table()
    by_label = {row.label: row.bits for row in computed}
    diffs = []
    for label in order:
        bits = by_label.get(label)
        for k, rel in enumerate(relations.RELATION_NAMES):
            want = table[label][k]
            got = None if bits is None else bits[k]
            if got != want:
                diffs.append(CellDiff(label, rel, want, got))
    return diffs
