"""Evaluators for the 20 invariant relations of the preservation table.

Each relation is first-order in the two orders.  Tuples are point indices
(first-order positions), pairwise distinct.  lt, btw, cyc and sep are
stated once, on plain values, and read in the first order (`_first`), the
second (`_second`), or both joined by one operator (`_joined`): or_ for
either order (r2-r4), eq for the same in both (st, r7), and_ for both
(up), gt for the first only (dow, r8).  r7, r8 and sep rest on distinct
points: exactly one of cyc(x,y,z) and cyc(z,y,x) holds.  r5 is btw2 and
r7, r6 is btw1 and r7.  In r1, lt in both orders reads (p, q) on (x,y)
and (x,z) and its quarter turn (q, not p) on (y,z) (`_turn`: the move
rev1,sw turns a reading so); in r9, cyc reads (p, q) on (x,y,w) and
(q, not p) on (y,w,z).

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
    return _cyc(w, x, y) == _cyc(w, z, x)


def _first(f):
    return lambda r, t: f(*t)


def _second(f):
    return lambda r, t: f(*[r[x] for x in t])


def _joined(f, op):
    return lambda r, t: op(f(*t), f(*[r[x] for x in t]))


# A point's two positions are its index and its rank: up means x below y
# in both orders, dow means below in the first and above in the second.
_up, _dow, _r7 = _joined(lt, and_), _joined(lt, gt), _joined(_cyc, eq)


def _both(f, g):
    return lambda r, t: f(r, t) and g(r, t)


def _turn(a, b):
    return b == (a[1], not a[0])


def _r1(r, t):
    x, y, z = t
    a = (x < y, r[x] < r[y])
    return a == (x < z, r[x] < r[z]) and _turn(a, (y < z, r[y] < r[z]))


def _r9(r, t):
    x, y, w, z = t
    rx, ry, rw, rz = r[x], r[y], r[w], r[z]
    return _turn((_cyc(x, y, w), _cyc(rx, ry, rw)), (_cyc(y, w, z), _cyc(ry, rw, rz)))


# name -> (arity, raw evaluator), in table column order.
_RELATIONS = {
    "lt1": (2, _first(lt)), "btw1": (3, _first(_btw)),
    "cyc1": (3, _first(_cyc)), "sep1": (4, _first(_sep)),
    "lt2": (2, _second(lt)), "btw2": (3, _second(_btw)),
    "cyc2": (3, _second(_cyc)), "sep2": (4, _second(_sep)),
    "st": (2, _joined(lt, eq)), "up": (2, _up), "dow": (2, _dow),
    "r1": (3, _r1), "r2": (3, _joined(_btw, or_)), "r3": (3, _joined(_cyc, or_)),
    "r4": (4, _joined(_sep, or_)), "r5": (3, _both(_second(_btw), _r7)),
    "r6": (3, _both(_first(_btw), _r7)), "r7": (3, _r7),
    "r8": (3, _joined(_cyc, gt)), "r9": (4, _r9),
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
