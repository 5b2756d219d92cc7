"""Symmetry classification toolkit for finite two-order permutation patterns.

The package mechanically verifies the classification of the closed
symmetry groups sitting above the automorphisms of a pair of linear
orders: the 39-element lattice of groups, the table recording which of
20 invariant relations each group preserves, orbit-cell behavior checks
and exact desk-scale Ramsey checks.
"""

from .patterns import (
    Pattern, T1, T2, T3, T4, PAIR_TYPES, REVERSED_TYPE,
    pattern_from_text, pattern_to_text, from_points, pair_type,
    sub_pattern, copies_of, enumerate_patterns,
)
from .relations import RELATION_NAMES, arity, evaluate
from .generators import (
    GeneratorId, REV1, REV2, REVREV, SW, turn_first, turn_second,
    apply, inverse, apply_word, word_from_text, word_to_text,
)
from .behaviors import (
    Behavior, BehaviorClass, behavior_of_word, extend, compose, classify,
    named_group_table, subgroups, element_order, center,
)
from .letters import Witness, letter_witness, letter_preserves
from .lattice import (
    ClosedSet, closure, closure_trace, enumerate_lattice, by_label,
    join, meet, minimal_label, hasse, export_dot,
)
from .preservation import (
    PreservationRow, full_table, golden_table, load_golden,
    diff_golden, find_witness,
)
from .orbits import (
    ConstantSet, OrbitCell, Sample, constant_set, cell_of, cells_of,
    check_canonical,
)
from .ramsey import (
    INFEASIBLE, find_mono_copy, check_ramsey_witness, search_witness,
)

__version__ = "0.1.0"
