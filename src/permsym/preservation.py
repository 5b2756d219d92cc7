"""Preservation table: which symmetry groups keep which relations invariant.

A closed letter set preserves a relation exactly when each member letter
does, so each row combines the letter scan of ``permsym.letters``:
positive cells hold at every size, and every negative cell carries a
one-move witness.  Computed rows are diffed against the published table.
"""

import csv
from collections import namedtuple
from functools import lru_cache
from importlib import resources

from . import relations
from .generators import GeneratorId
from .lattice import closure, minimal_label, enumerate_lattice
# letter_preserves and letter_matrix are re-exported for existing callers.
from .letters import (  # noqa: F401
    LETTERS, letter_witness, letter_preserves, letter_matrix,
)

PreservationRow = namedtuple("PreservationRow", ["label", "bits"])
RowResult = namedtuple("RowResult", ["row", "witnesses"])
TableResult = namedtuple("TableResult", ["rows", "witnesses"])
CellDiff = namedtuple("CellDiff", ["label", "relation", "golden", "computed"])

# Which generator kind realizes which single-map letter.
KIND_LETTER = {"rev2": "a", "t2": "b", "rev1": "c", "t1": "d",
               "revrev": "e", "sw": "f"}


def normalize_generators(gens):
    """Map generator kinds or letters to the closed letter set they generate."""
    found = set()
    for g in gens:
        token = g.kind if isinstance(g, GeneratorId) else g
        if token in KIND_LETTER:
            found.add(KIND_LETTER[token])
        elif token in LETTERS:
            found.add(token)
        else:
            raise ValueError("unknown generator or letter: %r" % (token,))
    return closure(found)


def find_witness(members, relation):
    """Witness of the first member letter, in sorted order, that has one.

    None when every member letter, and so the group, preserves the relation.
    """
    for letter in sorted(members):
        w = letter_witness(letter, relation)
        if w is not None:
            return w
    return None


def _row(members):
    """Bits of one closed letter set and the witnesses of its false cells."""
    found = {rel: find_witness(members, rel) for rel in relations.RELATION_NAMES}
    bits = tuple(w is None for w in found.values())
    return bits, {rel: w for rel, w in found.items() if w is not None}


def group_row(gens):
    """Preservation row of the closed group generated by gens, with witnesses."""
    members = normalize_generators(gens)
    bits, witnesses = _row(members)
    return RowResult(PreservationRow(minimal_label(members), bits), witnesses)


def full_table():
    """Rows for all 39 lattice elements, with witnesses for false cells."""
    rows = []
    witnesses = {}
    for element in enumerate_lattice():
        bits, found = _row(element.members)
        rows.append(PreservationRow(element.name, bits))
        for rel, w in found.items():
            witnesses[(element.name, rel)] = w
    return TableResult(tuple(rows), witnesses)


@lru_cache(maxsize=1)
def golden_table():
    """The published 37-row table: (ordered labels, label -> bit tuple)."""
    text = resources.files("permsym.data").joinpath("golden_table.csv").read_text()
    return _parse_golden(text)


def _parse_golden(text):
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


def load_golden(path):
    """Golden rows from an alternative CSV file (same shape as the resource)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError("cannot read golden table: %s" % exc) from None
    return _parse_golden(text)


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
