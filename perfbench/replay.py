"""Layer replay: the public calls the permsym commands make, in one process.

    python3 perfbench/replay.py --seed 1 --trace 1

Steps run in dependency order (patterns, relations, generators, the
lattice with its behavior calls, preservation, ramsey, orbits, then
``cli.run`` for every command), so each lower layer's caches are warm
when a higher one runs and each span is mostly that layer's own time.
Inside ``cli.run`` the layer modules are seen through proxies, so the
command's own parsing and formatting time is its span minus its
children.  Every answer is checked by ``oracle``.  Prints one JSON line:
wall time, spans (when traced), counts, errors per layer.
"""

import argparse
import contextlib
import io
import json
import math
import sys
import time
import types
from itertools import combinations, permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import LayerProxy, Tracer, patched  # noqa: E402

import permsym  # noqa: E402
from permsym import (  # noqa: E402
    behaviors, cli, generators, lattice, orbits, patterns, preservation,
    ramsey, relations,
)

MOVE_KINDS = ("rev1", "rev2", "revrev", "sw")
WITNESS_CELLS = 20
CLOSURE_SETS = 32
# cli.run gets the canonical samples up to about 300 points and no
# exhaustive (true) Ramsey check: the larger samples and those checks
# add layer time that the orbits and ramsey steps already measure.
CLI_STDIN_CHARS = 6000


def _defaults(*names):
    """The preservation defaults the commands pass, where they still exist.

    ``letter_matrix`` and ``full_table`` cache on their arguments, so the
    replay passes what the commands pass to share their cache entries.
    """
    return tuple(getattr(preservation, n) for n in names if hasattr(preservation, n))


class Replay:
    def __init__(self, seed, traced):
        self.tracer = Tracer(traced)
        self.rng = workloads.rng_for("replay", seed)
        self.seed = seed
        self.golden = oracle.Golden(ROOT)
        self.counts = {}
        self.errors = {}
        self.failures = []
        self.attempted = 0

    def check(self, layer, what, reason):
        self.attempted += 1
        if reason:
            self.errors[layer] = self.errors.get(layer, 0) + 1
            self.failures.append("%s %s: %s" % (layer, what, reason))

    def step(self, name, func):
        """Run one replay step; an exception counts as an error of its layer.

        A permsym function that no longer exists ends a layer step without
        an error: its metrics read 0 until the replay is updated.  Inside
        cli.run the same failure is the command's own error.
        """
        self.tracer.step = name
        try:
            func()
        except Exception as exc:  # a broken layer must not stop the replay
            if (not name.startswith("cli:") and isinstance(exc, AttributeError)
                    and isinstance(exc.obj, types.ModuleType)
                    and exc.obj.__name__.startswith("permsym.")):
                print("replay step %s skipped: %s" % (name, exc), file=sys.stderr)
                return
            self.check(name.split(":")[0].split(".")[0], name,
                       "%s: %s" % (type(exc).__name__, exc))

    # ------------------------------------------------------------ patterns

    def enumerate_patterns(self):
        with self.tracer.span("patterns.enumerate"):
            self.pats = {n: list(patterns.enumerate_patterns(n)) for n in range(9)}
        for n, pats in self.pats.items():
            ok = len({p.ranks for p in pats}) == math.factorial(n)
            self.check("patterns", "enumerate %d" % n, None if ok else "wrong count")

    def evaluate_relations(self):
        evals = 0
        with self.tracer.span("relations.eval"):
            for rel in self.golden.relations:
                f = relations.evaluator(rel)
                ar = relations.arity(rel)
                for n in range(ar, 6):
                    tuples = list(permutations(range(n), ar))
                    for p in self.pats[n]:
                        r = p.ranks
                        for t in tuples:
                            f(r, t)
                        evals += len(tuples)
        self.counts["relations.evals"] = evals
        # lt1 and lt2 are the two orders themselves.
        p = self.pats[5][-1]
        ok = (relations.evaluate("lt1", p, (0, 4)) and
              relations.evaluate("lt2", p, (0, 4)) == (p.ranks[0] < p.ranks[4]))
        self.check("relations", "lt1/lt2", None if ok else "wrong truth value")

    def apply_moves(self):
        results = []
        with self.tracer.span("generators.apply"):
            for n in range(1, 7):
                moves = [generators.GeneratorId(k, None) for k in MOVE_KINDS]
                moves += [generators.GeneratorId(k, c) for k in ("t1", "t2")
                          for c in range(n + 1)]
                for p in self.pats[n]:
                    for g in moves:
                        results.append((g, p, generators.apply(g, p)))
        self.counts["generators.applies"] = len(results)
        bad = next((err for g, p, res in results for err in [oracle.check_apply(
            g.kind, g.cut, p.ranks, res.pattern.ranks, res.mapping)] if err), None)
        self.check("generators", "apply", bad)

    # ------------------------------------------------------------- lattice

    def lattice_cold(self):
        t = self.tracer
        with patched(lattice, {"generated_subgroup": t.wrap(
                "behaviors.generated_subgroup", lattice.generated_subgroup)}), \
                patched(behaviors, {"named_group_table": t.wrap(
                    "behaviors.named_group_table", behaviors.named_group_table)}):
            with t.span("lattice.enumerate_cold"):
                elements = lattice.enumerate_lattice()
        labels = {x.name for x in elements}
        self.check("lattice", "enumerate", None if len(elements) == 39
                   and labels == self.golden.labels else "not the 39 golden labels")
        table = behaviors.named_group_table()
        names = list(oracle.BEHAVIOR_ELEMENTS)
        latin = all(sorted(table[(x, y)] for y in names) == sorted(names) for x in names)
        subgroups = {behaviors.generated_subgroup(set(c))
                     for k in range(len(names) + 1) for c in combinations(names, k)}
        ok = latin and len(subgroups) == 10 and {len(s) for s in subgroups} == {1, 2, 4, 8}
        self.check("behaviors", "group", None if ok else "not the order-8 group")

    def lattice_queries(self):
        sets = list(self.golden.order) + [
            "".join(x for x in oracle.LETTERS if self.rng.random() < 0.3)
            for _ in range(CLOSURE_SETS)]
        closed = []
        with self.tracer.span("lattice.closure"):
            for letters in sets:
                members, _ = lattice.closure_trace(set(letters))
                closed.append((letters, lattice.minimal_label(members), members))
        for letters, label, members in closed:
            self.check("lattice", "closure " + letters,
                       oracle.check_closure(self.golden, letters, label, members))
        with self.tracer.span("lattice.hasse"):
            covers = lattice.hasse()
        ok = covers and all(x in self.golden.labels for e in covers for x in e)
        self.check("lattice", "hasse", None if ok else "covers name unknown labels")
        with self.tracer.span("lattice.export_dot"):
            dot = lattice.export_dot()
        self.check("lattice", "dot", oracle.check_lattice_dot(self.golden, dot))

    # -------------------------------------------------------- preservation

    def letter_matrix(self):
        wrapped = self.tracer.wrap("preservation.letter_preserves",
                                   preservation.letter_preserves, detail_from_arg=True)
        with patched(preservation, {"letter_preserves": wrapped}):
            with self.tracer.span("preservation.letter_matrix"):
                matrix = preservation.letter_matrix(*_defaults("DEFAULT_MAX_SIZE"))
        # A single letter's row is its own group's row (h contains e).
        for x in oracle.LETTERS:
            row = tuple(int(matrix[(x, rel)]) for rel in self.golden.relations)
            self.check("preservation", "letter " + x, None
                       if row == self.golden.expected_row(x) else "row differs")

    def full_table(self):
        with self.tracer.span("preservation.full_table_rest"):
            result = preservation.full_table(
                *_defaults("DEFAULT_MAX_SIZE", "DEFAULT_MAX_WORD"))
        self.counts["preservation.witness_cells"] = sum(
            1 for w in result.witnesses.values() if w is not None)
        for row in result.rows:
            ok = tuple(int(b) for b in row.bits) == self.golden.expected_row(row.label)
            self.check("preservation", "row " + row.label, None if ok else "row differs")
        self.rows = result.rows

    def find_witnesses(self):
        cells = self.rng.sample(self.golden.cells(0), WITNESS_CELLS)
        cells.append(oracle.DIVERGENT)
        members = {label: lattice.find(label).members for label, _ in cells}
        found = []
        with self.tracer.span("preservation.find_witness"):
            for label, rel in cells:
                found.append((label, rel, preservation.find_witness(members[label], rel)))
        for label, rel, w in found:
            reason = "no witness" if w is None else oracle.replay_witness({
                "relation": w.relation, "pattern": workloads.pattern_text(w.pattern.ranks),
                "points": [x + 1 for x in w.points], "word": list(w.moves),
                "image_pattern": workloads.pattern_text(w.image_pattern.ranks),
                "image_points": [x + 1 for x in w.image_points],
            }, label, rel, permsym)
            self.check("preservation", "witness %s/%s" % (label, rel), reason)

    def diff_golden(self):
        with self.tracer.span("preservation.diff_golden"):
            diffs = preservation.diff_golden(self.rows)
        ok = any((d.label, d.relation, d.golden, d.computed) == ("de", "r1", True, False)
                 for d in diffs)
        self.check("preservation", "diff", None if ok else "de/r1 not reported")

    # -------------------------------------------------------------- ramsey

    def ramsey_hosts(self):
        """R(3,3)'s host and one ramsey pass's seeded hosts, as patterns."""
        if not hasattr(self, "hosts"):
            hosts = [("12", "123456")] + workloads.ramsey_hosts(self.rng)
            self.hosts = [(patterns.pattern_from_text(g), patterns.pattern_from_text(h),
                           g, h) for g, h in hosts]
        return self.hosts

    def copies_and_subpatterns(self):
        hosts = self.ramsey_hosts()
        smalls = self.pats[2] + self.pats[3]
        with self.tracer.span("patterns.copies_of"):
            copies = [(h, s, patterns.copies_of(h, s)) for _, h, _, _ in hosts
                      for s in smalls]
        for k in (2, 3):
            for _, h, _, _ in hosts:
                total = sum(len(c) for hh, s, c in copies if hh is h and s.n == k)
                self.check("patterns", "copies_of", None
                           if total == math.comb(h.n, k) else "copies miss subsets")
        subsets = [(h, s) for _, h, _, _ in hosts for k in range(2, h.n + 1)
                   for s in combinations(range(h.n), k)]
        with self.tracer.span("patterns.sub_pattern"):
            subs = [patterns.sub_pattern(h, s) for h, s in subsets]
        bad = sum(1 for (h, s), q in zip(subsets, subs)
                  if list(q.ranks) != [sorted(h.ranks[i] for i in s).index(h.ranks[i])
                                       for i in s])
        self.check("patterns", "sub_pattern", "%d wrong" % bad if bad else None)

    def ramsey_checks(self):
        omega = patterns.pattern_from_text("123")
        ms = []
        for gamma, host, gtext, htext in self.ramsey_hosts():
            want = oracle.ramsey_expected(htext, gtext, "123")
            ms.append(len(patterns.copies_of(host, gamma)))
            with self.tracer.span("ramsey.check", "true" if want else "false"):
                got = ramsey.check_ramsey_witness(host, gamma, omega)
            self.check("ramsey", "check " + htext, None if got is want else "got %r" % got)
        self.counts["ramsey.copies"] = sum(ms) / len(ms)
        with self.tracer.span("ramsey.search"):
            ones = ramsey.search_witness(patterns.pattern_from_text("1"), omega, 5)
            twos = ramsey.search_witness(patterns.pattern_from_text("12"), omega, 5)
        ok = (ones.pattern == patterns.pattern_from_text("12345")
              and twos.pattern is None)
        self.check("ramsey", "search", None if ok else "wrong smallest hosts")

    # -------------------------------------------------------------- orbits

    def canonical(self):
        inputs = []
        for sample, planted in workloads.canonical_samples(self.rng):
            source = patterns.pattern_from_text(sample["source_pattern"])
            cs = orbits.constant_set(source, [c - 1 for c in sample["constants"]])
            smp = orbits.Sample(source, patterns.pattern_from_text(sample["image_pattern"]),
                                {s - 1: d - 1 for s, d in sample["map"]})
            inputs.append((sample, planted, cs, smp))
        with self.tracer.span("orbits.cells_of"):
            cells = [orbits.cells_of(cs) for _, _, cs, _ in inputs]
        for (sample, _, cs, _), got in zip(inputs, cells):
            want = oracle.orbit_cells(cs.pattern.ranks, set(cs.constants))
            ok = {(c.row, c.col): pts for c, pts in got.items()} == want
            self.check("orbits", "cells_of", None if ok else "cells differ")
        sources = [cs.pattern for _, _, cs, _ in inputs]
        with self.tracer.span("patterns.pair_type"):
            types = [patterns.pair_type(p, x, y) for p in sources
                     for x, y in combinations(range(p.n), 2)]
        want = [patterns.T1 if p.ranks[x] < p.ranks[y] else patterns.T2
                for p in sources for x, y in combinations(range(p.n), 2)]
        bad = sum(1 for t, w in zip(types, want) if t != w)
        self.check("patterns", "pair_type", "%d wrong" % bad if bad else None)
        with self.tracer.span("orbits.check_canonical"):
            reports = [orbits.check_canonical(cs, smp) for _, _, cs, smp in inputs]
        self.counts["orbits.pairs"] = sum(
            math.comb(cs.pattern.n - len(cs.constants), 2) for _, _, cs, _ in inputs)
        for (_, planted, _, _), report in zip(inputs, reports):
            self.check("orbits", "check_canonical", None
                       if report.canonical == (planted is None) else "wrong verdict")

    # ----------------------------------------------------------------- cli

    def cli_commands(self):
        ctx = argparse.Namespace(golden=self.golden, permsym=permsym)
        rng = workloads.rng_for("replay-cli", self.seed)
        cmds = []
        for make_pass in workloads.WORKLOADS.values():
            cmds += [c for c in make_pass(ctx, rng)
                     if not (c.argv[0] == "ramsey" and c.code == 0)
                     and len(c.stdin or "") < CLI_STDIN_CHARS]
        t = self.tracer
        proxies = {name: LayerProxy(t, getattr(cli, name), name) for name in (
            "behaviors", "lattice", "orbits", "preservation", "ramsey", "relations")}
        proxies.update({name: t.wrap("patterns." + name, getattr(cli, name))
                        for name in ("pattern_from_text", "pattern_to_text")})
        for k, cmd in enumerate(cmds):
            self.step("cli:%d" % k, lambda cmd=cmd: self.cli_run(cmd, proxies))

    def cli_run(self, cmd, proxies):
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(cmd.stdin or "")
        with patched(cli, proxies), patched(sys, {"stdin": stdin}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.tracer.span("cli.run", cmd.argv[0]):
                code = cli.run(list(cmd.argv))
        reason = ("exit %d, expected %d" % (code, cmd.code) if code != cmd.code
                  else cmd.check(out.getvalue()))
        self.check("cli", " ".join(cmd.argv), reason)

    def run(self):
        start = time.perf_counter()
        for name, func in (
                ("patterns.enumerate", self.enumerate_patterns),
                ("relations.eval", self.evaluate_relations),
                ("generators.apply", self.apply_moves),
                ("lattice.cold", self.lattice_cold),
                ("lattice.queries", self.lattice_queries),
                ("preservation.letter_matrix", self.letter_matrix),
                ("preservation.full_table", self.full_table),
                ("preservation.find_witness", self.find_witnesses),
                ("preservation.diff_golden", self.diff_golden),
                ("patterns.copies", self.copies_and_subpatterns),
                ("ramsey.checks", self.ramsey_checks),
                ("orbits.canonical", self.canonical),
                ("cli", self.cli_commands)):
            self.step(name, func)
        return {
            "wall_s": time.perf_counter() - start,
            "spans": self.tracer.export(),
            "counts": self.counts,
            "errors": self.errors,
            "attempted": self.attempted,
            "failures": self.failures,
        }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = ap.parse_args()
    print(json.dumps(Replay(args.seed, bool(args.trace)).run()))


if __name__ == "__main__":
    main()
