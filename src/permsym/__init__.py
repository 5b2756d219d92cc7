"""Symmetry classification toolkit for finite two-order permutation patterns.

The package mechanically verifies the classification of the closed
symmetry groups sitting above the automorphisms of a pair of linear
orders: the 39-element lattice of groups, the table recording which of
20 invariant relations each group preserves, orbit-cell behavior checks
and exact desk-scale Ramsey checks.

Names are imported from their modules (``from permsym.patterns import
Pattern``); a submodule loads on first use, not on ``import permsym``.
"""

import importlib

__all__ = ["patterns", "relations", "generators", "behaviors", "letters",
           "lattice", "preservation", "orbits", "ramsey"]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return importlib.import_module("." + name, __name__)
