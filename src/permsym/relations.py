"""Evaluators for the 20 invariant relations of the preservation table.

Each relation is first-order in the two orders.  Tuples are given as point
indices (first-order positions); entries must be pairwise distinct, matching
how the relations are used to tell symmetry groups apart.

lt, btw, cyc and sep are stated once, on plain values, and read in the
first order (`_first`), the second (`_second`) or either (`_either`: r2, r3
and r4).  The relations that tie the two orders together are written out.

`evaluate` validates its arguments; `evaluator` hands back the raw function
on (ranks, tuple) for callers that loop over millions of cells and do their
own validation up front.
"""

from operator import lt


def _btw(a, b, c):
    return a < b < c or c < b < a


def _cyc(a, b, c):
    return a < b < c or b < c < a or c < a < b


def _sep(w, x, y, z):
    return (_cyc(w, x, y) and _cyc(w, z, x)) or (_cyc(w, y, x) and _cyc(w, x, z))


def _first(f):
    return lambda r, t: f(*t)


def _second(f):
    return lambda r, t: f(*[r[x] for x in t])


def _either(f):
    return lambda r, t: f(*t) or f(*[r[x] for x in t])


# A point's two positions are its index and its rank: up means x below y
# in both orders, dow means below in the first and above in the second.
def _up(r, x, y):
    return x < y and r[x] < r[y]


def _dow(r, x, y):
    return x < y and r[y] < r[x]


def _st(r, t):
    return (t[0] < t[1]) == (r[t[0]] < r[t[1]])


def _up_rel(r, t):
    return _up(r, t[0], t[1])


def _dow_rel(r, t):
    return _dow(r, t[0], t[1])


def _r1(r, t):
    x, y, z = t
    return ((_up(r, x, y) and _dow(r, y, z) and _up(r, x, z))
            or (_dow(r, x, y) and _up(r, z, y) and _dow(r, x, z))
            or (_up(r, y, x) and _dow(r, z, y) and _up(r, z, x))
            or (_dow(r, y, x) and _up(r, y, z) and _dow(r, z, x)))


def _r5(r, t):
    x, y, z = t
    return ((r[x] < r[y] < r[z] and _cyc(x, y, z))
            or (r[z] < r[y] < r[x] and _cyc(z, y, x)))


# r6 is r5 with the orders exchanged; on (ranks, tuple) that needs r inverted.
def _r6(r, t):
    x, y, z = t
    return ((x < y < z and _cyc(r[x], r[y], r[z]))
            or (z < y < x and _cyc(r[z], r[y], r[x])))


def _r7(r, t):
    x, y, z = t
    return ((_cyc(x, y, z) and _cyc(r[x], r[y], r[z]))
            or (_cyc(z, y, x) and _cyc(r[z], r[y], r[x])))


def _r8(r, t):
    x, y, z = t
    return _cyc(x, y, z) and not _cyc(r[x], r[y], r[z])


# Allowed (first triple, second triple) truth patterns for r9, keyed by
# the (cyc in order 1, cyc in order 2) values of the two consecutive
# triples of the 4-tuple.
_R9_STEPS = {
    ((True, True), (True, False)),
    ((False, True), (True, True)),
    ((False, False), (False, True)),
    ((True, False), (False, False)),
}


def _r9(r, t):
    x, y, w, z = t
    first = (_cyc(x, y, w), _cyc(r[x], r[y], r[w]))
    second = (_cyc(y, w, z), _cyc(r[y], r[w], r[z]))
    return (first, second) in _R9_STEPS


# name -> (arity, raw evaluator), in table column order.
_RELATIONS = {
    "lt1": (2, _first(lt)), "btw1": (3, _first(_btw)),
    "cyc1": (3, _first(_cyc)), "sep1": (4, _first(_sep)),
    "lt2": (2, _second(lt)), "btw2": (3, _second(_btw)),
    "cyc2": (3, _second(_cyc)), "sep2": (4, _second(_sep)),
    "st": (2, _st), "up": (2, _up_rel), "dow": (2, _dow_rel),
    "r1": (3, _r1), "r2": (3, _either(_btw)), "r3": (3, _either(_cyc)),
    "r4": (4, _either(_sep)),
    "r5": (3, _r5), "r6": (3, _r6), "r7": (3, _r7), "r8": (3, _r8), "r9": (4, _r9),
}
RELATION_NAMES = tuple(_RELATIONS)
ARITY = {name: k for name, (k, _) in _RELATIONS.items()}


def _relation(name):
    if name not in _RELATIONS:
        raise ValueError("unknown relation: %r" % (name,))
    return _RELATIONS[name]


def arity(name):
    return _relation(name)[0]


def evaluator(name):
    """Raw evaluator on (ranks, tuple); no argument validation."""
    return _relation(name)[1]


def evaluate(name, p, t):
    """Truth value of relation `name` on tuple t of point indices in p."""
    k, f = _relation(name)
    if len(t) != k:
        raise ValueError("%s takes %d points, got %d" % (name, k, len(t)))
    if len(set(t)) != len(t):
        raise ValueError("tuple entries must be distinct: %r" % (t,))
    for i in t:
        if not 0 <= i < p.n:
            raise ValueError("point index %r out of range for size %d" % (i, p.n))
    return f(p.ranks, tuple(t))
