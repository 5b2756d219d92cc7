"""Evaluators for the 20 invariant relations of the preservation table.

Each relation is first-order in the two orders.  Tuples are point indices
(first-order positions), pairwise distinct.  lt, btw, cyc and sep are
stated once, on plain values, and read in the first order (`_first`), the
second (`_second`), or both joined by one operator (`_joined`): or_ for
either order (r2-r4), eq for the same in both (st, r7), and_ for both
(up), gt for the first only (dow, r8).  r7 and r8 rest on distinct
points: exactly one of cyc(x,y,z) and cyc(z,y,x) holds.  r1, r5, r6 and
r9 combine several readings, so they are written out.

`evaluate` validates its arguments; `evaluator` hands back the raw function
on (ranks, tuple) for callers that loop over millions of cells and do their
own validation up front.
"""

from operator import and_, eq, gt, lt, or_


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


def _joined(f, op):
    return lambda r, t: op(f(*t), f(*[r[x] for x in t]))


# A point's two positions are its index and its rank: up means x below y
# in both orders, dow means below in the first and above in the second.
_up, _dow = _joined(lt, and_), _joined(lt, gt)


def _r1(r, t):
    x, y, z = t
    return ((_up(r, (x, y)) and _dow(r, (y, z)) and _up(r, (x, z)))
            or (_dow(r, (x, y)) and _up(r, (z, y)) and _dow(r, (x, z)))
            or (_up(r, (y, x)) and _dow(r, (z, y)) and _up(r, (z, x)))
            or (_dow(r, (y, x)) and _up(r, (y, z)) and _dow(r, (z, x))))


def _r5(r, t):
    x, y, z = t
    return ((r[x] < r[y] < r[z] and _cyc(x, y, z))
            or (r[z] < r[y] < r[x] and _cyc(z, y, x)))


# r6 is r5 with the orders exchanged; on (ranks, tuple) that needs r inverted.
def _r6(r, t):
    x, y, z = t
    return ((x < y < z and _cyc(r[x], r[y], r[z]))
            or (z < y < x and _cyc(r[z], r[y], r[x])))


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
    "st": (2, _joined(lt, eq)), "up": (2, _up), "dow": (2, _dow),
    "r1": (3, _r1), "r2": (3, _joined(_btw, or_)), "r3": (3, _joined(_cyc, or_)),
    "r4": (4, _joined(_sep, or_)), "r5": (3, _r5), "r6": (3, _r6),
    "r7": (3, _joined(_cyc, eq)), "r8": (3, _joined(_cyc, gt)), "r9": (4, _r9),
}
RELATION_NAMES = tuple(_RELATIONS)


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
