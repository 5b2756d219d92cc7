"""Tiny-scale exhaustive checks of the pattern Ramsey property.

A host pattern witnesses (gamma, omega) when every 2-coloring of the
gamma-copies inside it admits an omega-copy all of whose gamma-subcopies
share one color.  Everything here is brute force with an explicit
coloring budget; an over-budget check answers "infeasible", never a
guess.
"""

from collections import namedtuple
from itertools import combinations

from .patterns import sub_pattern, copies_of, enumerate_patterns

INFEASIBLE = "infeasible"
COLORING_BUDGET = 2 ** 24

SearchResult = namedtuple("SearchResult", ["pattern", "infeasible"])


def _check_coloring(delta, gamma, chi):
    copies = copies_of(delta, gamma)
    if set(chi) != set(copies):
        raise ValueError("coloring must be total on the %d copies" % len(copies))
    for v in chi.values():
        if v not in (0, 1):
            raise ValueError("colors must be 0 or 1, got %r" % (v,))
    return copies


def find_mono_copy(delta, gamma, omega, chi):
    """First omega-copy in delta whose gamma-subcopies are one color, or None."""
    _check_coloring(delta, gamma, chi)
    for ocopy in copies_of(delta, omega):
        colors = set()
        for s in combinations(ocopy, gamma.n):
            if sub_pattern(delta, s) == gamma:
                colors.add(chi[s])
        if len(colors) <= 1:
            return ocopy
    return None


def check_ramsey_witness(delta, gamma, omega, budget=COLORING_BUDGET):
    """Exhaustively test all colorings; True/False, or INFEASIBLE over budget."""
    copies = copies_of(delta, gamma)
    m = len(copies)
    if m >= budget.bit_length() or 2 ** m > budget:
        return INFEASIBLE
    for mask in range(2 ** m):
        chi = {copies[k]: (mask >> k) & 1 for k in range(m)}
        if find_mono_copy(delta, gamma, omega, chi) is None:
            return False
    return True


def search_witness(gamma, omega, max_n, budget=COLORING_BUDGET):
    """Smallest host (then lexicographically least) passing the check.

    Hosts whose check went over budget are reported in `infeasible`;
    pattern is None when no host up to max_n verifies.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative, got %d" % max_n)
    skipped = []
    for n in range(max_n + 1):
        for delta in enumerate_patterns(n):
            result = check_ramsey_witness(delta, gamma, omega, budget)
            if result is True:
                return SearchResult(delta, tuple(skipped))
            if result == INFEASIBLE:
                skipped.append(delta)
    return SearchResult(None, tuple(skipped))
