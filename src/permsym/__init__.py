"""Symmetry classification toolkit for finite two-order permutation patterns.

The package mechanically verifies the classification of the closed
symmetry groups sitting above the automorphisms of a pair of linear
orders: the 39-element lattice of groups, the table recording which of
20 invariant relations each group preserves, orbit-cell behavior checks
and exact desk-scale Ramsey checks.
"""

import importlib

# Public name -> the submodule that defines it.  Importing the package
# loads none of them; each loads on first use (PEP 562), so a command
# pays only for the modules it runs.
_EXPORTS = {
    "patterns": (
        "Pattern", "T1", "T2", "T3", "T4", "PAIR_TYPES", "REVERSED_TYPE",
        "pattern_from_text", "pattern_to_text", "from_points", "pair_type",
        "sub_pattern", "copies_of", "enumerate_patterns", "Behavior", "extend"),
    "relations": ("RELATION_NAMES", "arity", "evaluate"),
    "generators": (
        "GeneratorId", "REV1", "REV2", "REVREV", "SW", "turn_first", "turn_second",
        "apply", "inverse", "apply_word", "word_from_text", "word_to_text"),
    "behaviors": (
        "BehaviorClass", "behavior_of_word", "compose", "classify",
        "named_group_table", "subgroups"),
    "letters": ("Witness", "letter_witness", "letter_preserves"),
    "lattice": (
        "ClosedSet", "closure", "closure_trace", "enumerate_lattice", "by_label",
        "join", "meet", "minimal_label", "hasse", "export_dot"),
    "preservation": (
        "PreservationRow", "full_table", "golden_table", "load_golden",
        "diff_golden", "find_witness"),
    "orbits": (
        "ConstantSet", "OrbitCell", "Sample", "constant_set", "cells_of",
        "check_canonical"),
    "ramsey": ("INFEASIBLE", "find_mono_copy", "check_ramsey_witness", "search_witness"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
