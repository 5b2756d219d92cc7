"""Seeded command lists for the benchmark's workloads, each with its oracle.

A workload yields passes: lists of Command, each one `permsym`
invocation with the exit code and the output check it must satisfy.
Inputs come from the seed, the golden CSV and known constructions,
never from permsym's own output.  No command passes `--max-size`,
`--max-word` or relies on a Ramsey budget, and no check compares bytes
that the lattice covers, the scramble groups' members or extra
`table --diff` lines would change.
"""

import json
import random
from collections import namedtuple
from itertools import combinations

import oracle

Command = namedtuple("Command", ["argv", "stdin", "code", "check"])

TYPES = ("t1", "t2", "t3", "t4")
# Symmetries of the two orders a canonical sample is drawn under.
SAMPLE_SYMMETRIES = ("rev1", "rev2", "revrev", "sw")
# False size-6 12/123 hosts in one ramsey pass.  They are the many tiny
# hosts beside R(3,3), and with them most of a ramsey-canonical pass is
# commands of about interpreter-start time, so cmd_p50_s falls inside
# that group rather than on the edge between it and larger commands.
TINY_HOSTS = 14
# (size, number of constants, planted conflict) for one canonical pass.
CANONICAL_SAMPLES = (
    (100, 0, False), (200, 1, False), (300, 2, False),
    (400, 3, False), (500, 1, False), (600, 2, False),
    (250, 1, True), (450, 2, True),
)


def _json_check(check):
    def run(out):
        try:
            data = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return check(data)
    return run


def _exact(text):
    return lambda out: None if out.strip() == text else "expected %r" % text


def _shuffled(rng, n):
    ranks = list(range(n))
    rng.shuffle(ranks)
    return ranks


def pattern_text(ranks):
    """1-based text of a rank sequence, comma-separated above size 9."""
    sep = "," if len(ranks) > 9 else ""
    return sep.join(str(r + 1) for r in ranks)


# ----------------------------------------------------------------- table

def table_pass(ctx, rng):
    golden = ctx.golden

    def witness_check(label, rel, parse):
        def check(out):
            try:
                w = parse(out)
            except (KeyError, ValueError):
                return "witness output unreadable"
            return oracle.replay_witness(w, label, rel, ctx.permsym)
        return check

    label, rel = oracle.DIVERGENT
    cmds = [
        Command(["table"], None, 0, lambda out: oracle.check_table_csv(golden, out)),
        Command(["table", "--diff"], None, 1, oracle.check_table_diff),
        Command(["witness", label, rel], None, 0,
                witness_check(label, rel, oracle.parse_witness_text)),
    ]
    for label, rel in rng.sample(golden.cells(0), 2):
        cmds.append(Command(["witness", "--format", "json", label, rel], None, 0,
                            witness_check(label, rel, json.loads)))
    label, rel = rng.choice(golden.cells(1))
    cmds.append(Command(["witness", label, rel], None, 1, lambda out: None))
    return cmds


# ----------------------------------------------------------------- query

def query_pass(ctx, rng):
    golden = ctx.golden
    cmds = [
        Command(["lattice", "--count-only"], None, 0, _exact("39")),
        Command(["lattice"], None, 0,
                _json_check(lambda d: oracle.check_lattice_json(golden, d))),
        Command(["lattice", "--format", "dot"], None, 0,
                lambda out: oracle.check_lattice_dot(golden, out)),
    ]
    for letters in rng.sample(golden.order, 2):
        cmds.append(Command(["closure", letters], None, 0, _closure_text(golden, letters)))
    for _ in range(2):
        letters = "".join(x for x in oracle.LETTERS if rng.random() < 0.3) or "a"
        cmds.append(Command(["closure", letters, "--format", "json"], None, 0,
                            _json_check(lambda d, s=letters: oracle.check_closure(
                                golden, s, d["label"], d["members"]))))
    for _ in range(4):
        t1, t2 = rng.choice(TYPES), rng.choice(TYPES)
        kind, detail = oracle.classify_expected(t1, t2)
        cmds.append(Command(
            ["classify", "--behavior", "%s,%s" % (t1, t2), "--format", "json"], None, 0,
            _json_check(lambda d, k=kind, p=detail: None
                        if d["class"] == k and d["detail"].startswith(p)
                        else "classified as %s %s" % (d["class"], d["detail"]))))
    for _ in range(4):
        n = rng.randint(4, 9)
        ranks = _shuffled(rng, n)
        constants = sorted(rng.sample(range(n), rng.randint(0, 3)))
        cells = oracle.orbit_cells(ranks, set(constants))
        argv = ["orbits", "--pattern", pattern_text(ranks), "--format", "json"]
        if constants:
            argv += ["--constants", ",".join(str(c + 1) for c in constants)]
        cmds.append(Command(argv, None, 0, _json_check(
            lambda d, c=cells: oracle.check_cells_json(c, d["cells"]))))
    return cmds


def _closure_text(golden, letters):
    def check(out):
        fields = dict(line.split(": ", 1) for line in out.splitlines()
                      if ": " in line and not line.startswith(" "))
        members = fields.get("closed", "").replace("-", "")
        return oracle.check_closure(golden, letters, fields.get("label"), members)
    return check


# ---------------------------------------------------------------- ramsey

def ramsey_hosts(rng):
    """Seeded hosts: false 12/123 hosts of size 6, then 1/123 hosts.

    The size-6 hosts have at most 10 increasing pairs, so each exits
    after few colorings.  The 1/123 hosts are one true and one false at
    each of sizes 7 and 8, so a pass does the same work for any seed.
    """
    hosts = []
    while len(hosts) < TINY_HOSTS:
        ranks = _shuffled(rng, 6)
        if oracle.increasing_pairs(ranks) <= 10:
            hosts.append(("12", pattern_text(ranks)))
    for n in (7, 8):
        for want in (True, False):
            while True:
                ranks = _shuffled(rng, n)
                if (oracle.longest_increasing(ranks) >= 5) == want:
                    hosts.append(("1", pattern_text(ranks)))
                    break
    return hosts


def ramsey_pass(ctx, rng):
    cmds = [_ramsey_command("123456", "12")]
    cmds += [_ramsey_command(host, gamma) for gamma, host in ramsey_hosts(rng)]
    cmds.append(Command(["ramsey-search", "--gamma", "1", "--omega", "123",
                         "--max-n", "5"], None, 0, _exact("12345")))
    cmds.append(Command(["ramsey-search", "--gamma", "12", "--omega", "123",
                         "--max-n", "5"], None, 1, _exact("none")))
    return cmds


def _ramsey_command(host, gamma):
    want = oracle.ramsey_expected(host, gamma, "123")
    return Command(["ramsey", "--delta", host, "--gamma", gamma, "--omega", "123"],
                   None, 0 if want else 1, _exact("true" if want else "false"))


# ------------------------------------------------------------- canonical

def canonical_sample(rng, n, k, planted):
    """A check-canonical input and the cell holding a planted conflict.

    The map is one global symmetry, so every pair moves by one behavior
    and the sample is canonical.  Planting swaps the images of two
    points x < y of the largest cell that share their pair type with a
    disjoint pair of that cell; the two pairs then move differently.

    The k constants sit at evenly spaced first-order positions and take
    evenly spaced second-order ranks in seeded order, so every sample of
    a given size has (k + 1)^2 cells of similar size and every seed does
    the same work.
    """
    ranks = _shuffled(rng, n)
    constants = [(i + 1) * n // (k + 1) for i in range(k)]
    for c, r in zip(constants, rng.sample(constants, k)):
        other = ranks.index(r)
        ranks[c], ranks[other] = ranks[other], ranks[c]
    kind = rng.choice(SAMPLE_SYMMETRIES)
    moved = [oracle.moved_point(kind, None, n, x, ranks[x]) for x in range(n)]
    image = [0] * n
    for x, y in moved:
        image[x] = y
    mapping = {p: moved[p][0] for p in range(n)}
    cell = None
    if planted:
        cells = oracle.orbit_cells(ranks, set(constants))
        cell = max(cells, key=lambda c: (len(cells[c]), c))
        pts = cells[cell]
        up = lambda a, b: ranks[a] < ranks[b]
        x, y = next(
            (a, b) for a, b in combinations(pts, 2)
            if any(up(u, v) == up(a, b) for u, v in combinations(pts, 2)
                   if not {u, v} & {a, b}))
        mapping[x], mapping[y] = mapping[y], mapping[x]
    sample = {
        "source_pattern": pattern_text(ranks),
        "image_pattern": pattern_text(image),
        "map": [[p + 1, mapping[p] + 1] for p in range(n)],
        "constants": [c + 1 for c in constants],
    }
    return sample, cell


def canonical_samples(rng):
    return [canonical_sample(rng, n, k, planted) for n, k, planted in CANONICAL_SAMPLES]


def canonical_pass(ctx, rng):
    cmds = []
    for sample, cell in canonical_samples(rng):
        cmds.append(Command(
            ["check-canonical", "-"], json.dumps(sample), 0 if cell is None else 1,
            _json_check(lambda d, s=sample, c=cell: oracle.check_canonical_report(s, c, d))))
    return cmds


def ramsey_canonical_pass(ctx, rng):
    return ramsey_pass(ctx, rng) + canonical_pass(ctx, rng)


# ramsey and canonical share one workload: neither touches the lattice
# or preservation, and one workload fewer leaves every run more of the
# benchmark's total time (the R(3,3) host alone takes about 10 s).
WORKLOADS = {
    "table": table_pass,
    "query": query_pass,
    "ramsey-canonical": ramsey_canonical_pass,
}


def rng_for(workload, seed):
    return random.Random("%s:%d" % (workload, seed))
