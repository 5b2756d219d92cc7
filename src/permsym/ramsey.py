"""Tiny-scale exact checks of the pattern Ramsey property.

A host pattern witnesses (gamma, omega) when every 2-coloring of the
gamma-copies inside it admits an omega-copy all of whose gamma-subcopies
share one color: the hypergraph with the gamma-copies as vertices and
each omega-copy as an edge of its gamma-subcopies has no proper
2-coloring ("property B" fails).  A backtracking search decides this for
hosts of at most MAX_COPIES gamma-copies; a larger host answers
"infeasible", never a guess.  At most MAX_COPIES + 1 gamma-copies are
listed, and omega-copies are read until an edge holds at most one; a
host whose every omega-copy holds two or more lists all of them.
"""

from collections import namedtuple
from itertools import combinations, islice

from .patterns import copies_of, enumerate_patterns, iter_copies

INFEASIBLE = "infeasible"
MAX_COPIES = 24

SearchResult = namedtuple("SearchResult", ["pattern", "infeasible"])


def _copy_edges(delta, gamma, copies, omega):
    """Yield each omega-copy of delta, in copies_of order, with its edge mask.

    Bit k of the mask is set iff the gamma-copy copies[k] lies inside
    the omega-copy.
    """
    bit = {c: 1 << k for k, c in enumerate(copies)}
    for ocopy in iter_copies(delta, omega):
        # distinct copies hold distinct bits, so the sum is their union
        yield ocopy, sum(bit.get(s, 0) for s in combinations(ocopy, gamma.n))


def _check_coloring(copies, chi):
    if set(chi) != set(copies):
        raise ValueError("coloring must be total on the %d copies" % len(copies))
    for v in chi.values():
        if v not in (0, 1):
            raise ValueError("colors must be 0 or 1, got %r" % (v,))


def find_mono_copy(delta, gamma, omega, chi):
    """First omega-copy in delta whose gamma-subcopies are one color, or None."""
    copies = copies_of(delta, gamma)
    _check_coloring(copies, chi)
    ones = sum(1 << k for k, c in enumerate(copies) if chi[c])
    for ocopy, mask in _copy_edges(delta, gamma, copies, omega):
        if (mask & ones) in (0, mask):
            return ocopy
    return None


def _has_proper_coloring(m, masks):
    """True iff some coloring of bits 0..m-1 leaves no mask one color.

    Every mask must hold at least two bits.  Copies are colored in index
    order and an edge is tested when its highest copy gets its color.
    Copy 0 takes color 0: swapping the colors keeps a coloring proper.
    """
    if not masks:
        return True
    closing = [[] for _ in range(m)]
    for mask in masks:
        closing[mask.bit_length() - 1].append(mask)
    stack = [(1, 0)]
    while stack:
        k, ones = stack.pop()
        if any((mask & ones) in (0, mask) for mask in closing[k - 1]):
            continue
        if k == m:
            return True
        stack.append((k + 1, ones | (1 << k)))
        stack.append((k + 1, ones))
    return False


def check_ramsey_witness(delta, gamma, omega):
    """True iff every coloring has a one-color omega-copy; INFEASIBLE past MAX_COPIES."""
    copies = list(islice(iter_copies(delta, gamma), MAX_COPIES + 1))
    m = len(copies)
    if m > MAX_COPIES:
        return INFEASIBLE
    masks = set()
    for _, mask in _copy_edges(delta, gamma, copies, omega):
        # an edge with at most one copy is one color under every coloring
        if (mask & (mask - 1)) == 0:
            return True
        masks.add(mask)
    return not _has_proper_coloring(m, masks)


def search_witness(gamma, omega, max_n):
    """Smallest host (then lexicographically least) passing the check.

    Hosts whose check was infeasible are reported in `infeasible`;
    pattern is None when no host up to max_n verifies.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative, got %d" % max_n)
    skipped = []
    for n in range(max_n + 1):
        for delta in enumerate_patterns(n):
            result = check_ramsey_witness(delta, gamma, omega)
            if result is True:
                return SearchResult(delta, tuple(skipped))
            if result == INFEASIBLE:
                skipped.append(delta)
    return SearchResult(None, tuple(skipped))
