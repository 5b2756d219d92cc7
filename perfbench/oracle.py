"""Checks on permsym's answers that do not reuse the code they check.

Expected values come from the published table (the golden CSV, read as
a plain file), from constructions whose answer is known in advance
(R(3,3) = 6, Erdos-Szekeres for the pattern 123, global symmetries of a
sampled map), and from small re-derivations written here: orbit cells,
the order-8 group of global symmetries, pair-behavior classes and a
sound subset of each group's letters.  Witness replay applies the moves
with ``permsym.generators.apply`` and evaluates the relation with
``permsym.relations.evaluate``; it checks the witness search, not those
two layers, which ``check_apply`` and the table rows cover.

Every check returns None when the answer is right and a one-line reason
when it is wrong.
"""

import csv
from itertools import combinations
from pathlib import Path

# The one cell where the computation refutes the published table.
DIVERGENT = ("de", "r1")
LETTERS = "abcdefghij"

# A global symmetry of the two orders as a 2x2 matrix acting on the
# direction (first-order step, second-order step) of a pair of points.
IDENTITY = ((1, 0), (0, 1))
PLAIN = {
    "rev1": ((-1, 0), (0, 1)),
    "rev2": ((1, 0), (0, -1)),
    "revrev": ((-1, 0), (0, -1)),
    "sw": ((0, 1), (1, 0)),
}


def _mul(m2, m1):
    """The matrix of "m1, then m2"."""
    return tuple(
        tuple(sum(m2[i][k] * m1[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def word_matrix(kinds):
    m = IDENTITY
    for kind in kinds:
        m = _mul(PLAIN[kind], m)
    return m


# Letters realized by global symmetries; h has the two order-4 rotations.
LETTER_ELEMENTS = {
    "a": {word_matrix(["rev2"])},
    "c": {word_matrix(["rev1"])},
    "e": {word_matrix(["revrev"])},
    "f": {word_matrix(["sw"])},
    "g": {word_matrix(["revrev", "sw"])},
    "h": {word_matrix(["rev2", "sw"]), word_matrix(["rev1", "sw"])},
}
ELEMENT_LETTER = {m: x for x, ms in LETTER_ELEMENTS.items() for m in ms}

# Names of the eight invertible pair behaviors, "x.y" meaning x after y.
BEHAVIOR_ELEMENTS = {
    "id": IDENTITY,
    "id/rev": word_matrix(["rev2"]),
    "rev/id": word_matrix(["rev1"]),
    "rev/rev": word_matrix(["revrev"]),
    "sw": word_matrix(["sw"]),
    "sw.rev/rev": word_matrix(["revrev", "sw"]),
    "sw.id/rev": word_matrix(["rev2", "sw"]),
    "sw.rev/id": word_matrix(["rev1", "sw"]),
}

# Pair types as directions: t1 up in both orders, t2 up then down,
# t3 and t4 their reversals.
TYPE_DIRECTION = {"t1": (1, 1), "t2": (1, -1), "t3": (-1, -1), "t4": (-1, 1)}


def _act(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def generated_group(elements):
    group = {IDENTITY} | set(elements)
    while True:
        more = {_mul(x, y) for x in group for y in group} - group
        if not more:
            return frozenset(group)
        group |= more


def letters_in_group(letters):
    """Letters certainly inside the group the given letters generate.

    Sound, not complete: a one-order scramble contains the moves fixing
    that order (i: a, b; j: c, d), an order exchange conjugates one turn
    family into the other, and the symmetry letters close under their
    group.  Scramble absorption is deliberately left out.
    """
    s = set(letters)
    while True:
        grown = set(s)
        if "i" in s:
            grown |= {"a", "b"}
        if "j" in s:
            grown |= {"c", "d"}
        if s & set("fgh") and s & set("bd"):
            grown |= {"b", "d"}
        group = generated_group(
            m for x in s if x in LETTER_ELEMENTS for m in LETTER_ELEMENTS[x])
        grown |= {x for x, ms in LETTER_ELEMENTS.items() if ms & group}
        if grown == s:
            return s
        s = grown


# ---------------------------------------------------------------- golden

class Golden:
    """The published table, read straight from the CSV resource."""

    def __init__(self, root):
        path = Path(root) / "src" / "permsym" / "data" / "golden_table.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        self.header = rows[0]
        self.relations = tuple(rows[0][1:])
        self.order = tuple(r[0] for r in rows[1:])
        self.rows = {r[0]: tuple(int(b) for b in r[1:]) for r in rows[1:]}
        self.labels = frozenset(self.order) | {"bottom", "sym"}

    def expected_row(self, label):
        """The row the computation must give: golden, except DIVERGENT."""
        if label == "bottom":
            return (1,) * len(self.relations)
        if label == "sym":
            return (0,) * len(self.relations)
        row = list(self.rows[label])
        if label == DIVERGENT[0]:
            row[self.relations.index(DIVERGENT[1])] = 0
        return tuple(row)

    def cells(self, bit):
        """Golden cells holding `bit`, in table order, DIVERGENT excluded."""
        return [(label, rel) for label in self.order
                for rel, b in zip(self.relations, self.rows[label])
                if b == bit and (label, rel) != DIVERGENT]


# ----------------------------------------------------------------- table

def check_table_csv(golden, out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines or lines[0].split(",") != golden.header:
        return "table header differs from the golden CSV"
    rows = {}
    for line in lines[1:]:
        label, *bits = line.split(",")
        rows[label] = tuple(int(b) for b in bits)
    if set(rows) != golden.labels:
        return "table labels differ: %s" % sorted(set(rows) ^ golden.labels)
    for label, bits in rows.items():
        if bits != golden.expected_row(label):
            return "table row %s differs from the golden CSV" % label
    return None


def check_table_diff(out):
    want = "%s %s: golden=1 computed=0" % DIVERGENT
    if want not in (line.strip() for line in out.splitlines()):
        return "table --diff does not report %r" % want
    return None


# --------------------------------------------------------------- witness

def _parse_points(text):
    return [int(p.strip().lstrip("p")) for p in text.split(",") if p.strip()]


def parse_witness_text(out):
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return {
        "relation": fields["relation"],
        "pattern": fields["pattern"],
        "points": _parse_points(fields["points"]),
        "word": [m.strip() for m in fields["word"].split(";")],
        "image_pattern": fields["image pattern"],
        "image_points": _parse_points(fields["image points"]),
    }


def ranks_from_text(text):
    parts = text.split(",") if "," in text else list(text)
    return tuple(int(p) - 1 for p in parts)


def _move_letters(move):
    """Letters whose families contain the move text."""
    if move[:2] in ("i@", "j@"):
        return [move[0]]
    parts = move.split(",")
    if all(p in PLAIN for p in parts):
        return [ELEMENT_LETTER.get(word_matrix(parts))]
    letters = []
    for part in parts:
        if part.startswith("t1@"):
            letters.append("d")
        elif part.startswith("t2@"):
            letters.append("b")
        else:
            letters.append(ELEMENT_LETTER.get(PLAIN.get(part)))
    return letters


def replay_witness(w, label, relation, permsym):
    """None when the witness is a valid counterexample for the cell."""
    from_ranks = permsym.patterns.Pattern
    if w["relation"] != relation:
        return "witness is for %s, not %s" % (w["relation"], relation)
    group = letters_in_group(label)
    for move in w["word"]:
        bad = [x for x in _move_letters(move) if x not in group]
        if bad:
            return "move %s is not in group %s" % (move, label)
    current = from_ranks(ranks_from_text(w["pattern"]))
    points = [p - 1 for p in w["points"]]
    if not permsym.relations.evaluate(relation, current, points):
        return "relation does not hold on the stated points"
    for move in w["word"]:
        if move[:2] in ("i@", "j@"):
            target = from_ranks(ranks_from_text(move[2:]))
            if target.n != current.n:
                return "scramble target size differs"
            if move[0] == "j":
                where = {v: k for k, v in enumerate(target.ranks)}
                points = [where[current.ranks[p]] for p in points]
            current = target
            continue
        for part in move.split(","):
            kind, _, cut = part.partition("@")
            g = permsym.generators.GeneratorId(kind, int(cut) if cut else None)
            step = permsym.generators.apply(g, current)
            current = step.pattern
            points = [step.mapping[p] for p in points]
    if current.ranks != ranks_from_text(w["image_pattern"]):
        return "word does not reach the stated image pattern"
    if [p + 1 for p in points] != w["image_points"]:
        return "word does not reach the stated image points"
    if permsym.relations.evaluate(relation, current, points):
        return "relation still holds on the image"
    return None


# ----------------------------------------------------------------- query

def check_lattice_json(golden, data):
    labels = [x["label"] for x in data["elements"]]
    if data["count"] != 39 or len(labels) != 39 or set(labels) != golden.labels:
        return "lattice does not list the 37 golden rows plus bottom and sym"
    return None


def check_lattice_dot(golden, out):
    nodes, edges = set(), []
    for line in out.splitlines():
        line = line.strip().rstrip(";")
        if "->" in line:
            edges.append([x.strip().strip('"') for x in line.split("->")])
        elif line.startswith('"'):
            nodes.add(line.strip('"'))
    if nodes != golden.labels:
        return "dot nodes differ from the lattice labels"
    if not edges or any(x not in nodes for e in edges for x in e):
        return "dot edges missing or naming unknown nodes"
    return None


def check_closure(golden, letters, label, members):
    given = set(letters)
    if label not in golden.labels:
        return "closure label %r is not a lattice label" % label
    if not given <= set(members):
        return "closure of %s lost input letters" % letters
    if label == "sym" and set(members) != set(LETTERS):
        return "sym must hold every letter"
    if label not in ("bottom", "sym") and not set(label) <= set(members):
        return "label %s not inside its members" % label
    if letters in golden.rows and label != letters:
        return "closure of row %s is labelled %s" % (letters, label)
    return None


def classify_expected(t1, t2):
    """(class, detail prefix) for the behavior sending t1, t2 as given."""
    images = (TYPE_DIRECTION[t1], TYPE_DIRECTION[t2])
    for name, m in BEHAVIOR_ELEMENTS.items():
        if (_act(m, TYPE_DIRECTION["t1"]), _act(m, TYPE_DIRECTION["t2"])) == images:
            return "named", name
    return "diagonal", "order %d" % (1 if t1 == t2 else 2)


def orbit_cells(ranks, constants):
    """(row, col) -> sorted points, 0-based, for the non-constant points."""
    cells = {}
    for p in range(len(ranks)):
        if p in constants:
            continue
        col = sum(1 for c in constants if c < p)
        row = sum(1 for c in constants if ranks[c] < ranks[p])
        cells.setdefault((row, col), []).append(p)
    return cells


def check_cells_json(cells, reported):
    """`reported` is a list of {row, col, points(1-based)} entries."""
    got = {(c["row"], c["col"]): [p - 1 for p in c["points"]] for c in reported}
    if got != cells:
        return "orbit cells differ from the re-derived cells"
    return None


# ---------------------------------------------------------------- ramsey

def longest_increasing(ranks):
    best = []
    for i, v in enumerate(ranks):
        best.append(1 + max((best[j] for j in range(i) if ranks[j] < v), default=0))
    return max(best, default=0)


def increasing_pairs(ranks):
    return sum(1 for i, j in combinations(range(len(ranks)), 2) if ranks[i] < ranks[j])


def ramsey_expected(host, gamma, omega):
    """Known answers: R(3,3) = 6 for 12/123, Erdos-Szekeres for 1/123."""
    if (gamma, omega) == ("12", "123") and len(host) <= 6:
        return host == "123456"
    if (gamma, omega) == ("1", "123"):
        return longest_increasing(ranks_from_text(host)) >= 5
    raise ValueError("no oracle for %s/%s" % (gamma, omega))


# ------------------------------------------------------------- canonical

def check_canonical_report(sample, planted_cell, data):
    ranks = ranks_from_text(sample["source_pattern"])
    constants = {c - 1 for c in sample["constants"]}
    err = check_cells_json(orbit_cells(ranks, constants), data["cells"])
    if err:
        return err
    if data["canonical"] != (planted_cell is None):
        return "verdict canonical=%s is wrong" % data["canonical"]
    if planted_cell is not None:
        cell = [c for c in data["cells"] if (c["row"], c["col"]) == planted_cell]
        if not cell or cell[0]["consistent"]:
            return "planted conflict in cell %s not reported" % (planted_cell,)
    return None


# ------------------------------------------------------------- generators

def moved_point(kind, cut, n, x, y):
    """Where a move sends the point at (first rank x, second rank y)."""
    if kind == "rev1":
        return n - 1 - x, y
    if kind == "rev2":
        return x, n - 1 - y
    if kind == "revrev":
        return n - 1 - x, n - 1 - y
    if kind == "sw":
        return y, x
    if kind == "t1":
        return (x + n - cut) % n, y
    if kind == "t2":
        return x, (y + n - cut) % n
    raise ValueError(kind)


def check_apply(kind, cut, ranks, image_ranks, mapping):
    n = len(ranks)
    for x in range(n):
        nx, ny = moved_point(kind, cut, n, x, ranks[x])
        if mapping[x] != nx or image_ranks[nx] != ny:
            return "%s@%s moves point %d wrongly" % (kind, cut, x)
    return None
