"""Command-line front end.

Commands emit deterministic reports: CSV for tables, JSON for structured
results, DOT for the lattice drawing.  Points, pattern digits and cut
positions are 1-based on the command line ("p1" is the first-order least
point); library indices are 0-based.

Exit codes: 0 success, 1 verification failure (mismatch, preserved cell
asked for a witness, failed check), 2 usage error or bad input.
"""

import argparse
import importlib
import os
import sys
import types

from .patterns import pattern_from_text, pattern_to_text, T1, T2, T3, T4


class _LazyModule(types.ModuleType):
    """A library module that is imported on its first attribute use.

    Until then it is absent from ``sys.modules``, so each command loads
    only the modules it runs.  perfbench/replay.py holds the module-level
    names below in place: it swaps them by name for timing proxies and
    runs ``cli.run`` in process, until the benchmark reads the program's
    own counters instead (ROADMAP item 3).
    """

    def __getattr__(self, name):
        return getattr(importlib.import_module(self.__name__), name)


behaviors, lattice, orbits, preservation, ramsey, relations = (
    _LazyModule("%s.%s" % (__package__, name)) for name in (
        "behaviors", "lattice", "orbits", "preservation", "ramsey", "relations"))
json = _LazyModule("json")

TYPE_NAMES = {T1: "t1", T2: "t2", T3: "t3", T4: "t4"}
NAMES_TYPE = {v: k for k, v in TYPE_NAMES.items()}


def _pattern(text):
    try:
        return pattern_from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _behavior(text):
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 2 or any(p not in NAMES_TYPE for p in parts):
        raise argparse.ArgumentTypeError(
            "behavior must look like t1,t2 (images of the two pair types)")
    return behaviors.Behavior(NAMES_TYPE[parts[0]], NAMES_TYPE[parts[1]])


def _behavior_text(b):
    return "%s,%s" % (TYPE_NAMES[b.image_t1], TYPE_NAMES[b.image_t2])


def _points(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            if not part.isdigit() or int(part) < 1:
                raise argparse.ArgumentTypeError(
                    "points are 1-based integers, got %r" % (part,))
            out.append(int(part) - 1)
    return out


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage text."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def _parser():
    ap = _Parser(
        prog="permsym",
        description="Verify the symmetry-group classification of two-order patterns.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="compute the preservation table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--diff", action="store_true",
                   help="report cells differing from the published table")
    p.add_argument("--golden", metavar="FILE",
                   help="alternative golden table CSV")

    p = sub.add_parser("lattice", help="enumerate the 39 closed groups")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("closure", help="close a letter set under its invariants")
    p.add_argument("letters", help="letter set, e.g. abf")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="classify a pair behavior")
    p.add_argument("--behavior", type=_behavior, required=True,
                   metavar="T,T", help="images of the two pair types, e.g. t1,t2")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("witness", help="show a violating move word for a cell")
    p.add_argument("label", help="group label, e.g. e")
    p.add_argument("relation", help="relation name, e.g. cyc1")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("orbits", help="orbit cells relative to constants")
    p.add_argument("--pattern", type=_pattern, required=True)
    p.add_argument("--constants", type=_points, default=[],
                   metavar="LIST", help="1-based point list, e.g. 2,3")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-canonical",
                       help="behavior report for a sampled map (JSON file or '-')")
    p.add_argument("sample", help="JSON file with source_pattern, image_pattern, map, constants")

    p = sub.add_parser("ramsey", help="exhaustive Ramsey check on a host")
    p.add_argument("--delta", type=_pattern, required=True)
    p.add_argument("--gamma", type=_pattern, required=True)
    p.add_argument("--omega", type=_pattern, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("ramsey-search", help="smallest host passing the Ramsey check")
    p.add_argument("--gamma", type=_pattern, required=True)
    p.add_argument("--omega", type=_pattern, required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return ap


def run(argv):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    handler = {
        "table": _cmd_table,
        "lattice": _cmd_lattice,
        "closure": _cmd_closure,
        "classify": _cmd_classify,
        "witness": _cmd_witness,
        "orbits": _cmd_orbits,
        "check-canonical": _cmd_check_canonical,
        "ramsey": _cmd_ramsey,
        "ramsey-search": _cmd_ramsey_search,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _table_order(rows):
    order, _ = preservation.golden_table()
    by_label = {row.label: row for row in rows}
    out = [by_label["bottom"]]
    out.extend(by_label[label] for label in order)
    out.append(by_label["sym"])
    return out


def _cmd_table(args):
    if args.golden and not args.diff:
        raise ValueError("--golden needs --diff")
    result = preservation.full_table()
    golden = preservation.load_golden(args.golden) if args.golden else None
    rows = _table_order(result.rows)
    if args.diff:
        diffs = preservation.diff_golden(result.rows, golden)
        if args.format == "json":
            print(json.dumps({
                "mismatches": [
                    {"label": d.label, "relation": d.relation,
                     "golden": d.golden, "computed": d.computed}
                    for d in diffs],
            }, indent=2))
        else:
            print("%d mismatches" % len(diffs))
            for d in diffs:
                print("  %s %s: golden=%s computed=%s"
                      % (d.label, d.relation, int(d.golden),
                         "missing" if d.computed is None else int(d.computed)))
        return 1 if diffs else 0
    if args.format == "json":
        print(json.dumps({
            "rows": [
                {"label": row.label,
                 "bits": {rel: bit for rel, bit in
                          zip(relations.RELATION_NAMES, row.bits)}}
                for row in rows],
        }, indent=2))
    else:
        print("label," + ",".join(relations.RELATION_NAMES))
        for row in rows:
            print(row.label + "," + ",".join(str(int(b)) for b in row.bits))
    return 0


def _cmd_lattice(args):
    elements = lattice.enumerate_lattice()
    if args.count_only:
        print(len(elements))
        return 0
    if args.format == "dot":
        sys.stdout.write(lattice.export_dot())
        return 0
    if args.format == "text":
        for x in elements:
            print("%s: %s" % (x.name, "".join(sorted(x.members)) or "-"))
        return 0
    print(json.dumps({
        "count": len(elements),
        "elements": [
            {"label": x.name, "members": "".join(sorted(x.members))}
            for x in elements],
        "covers": [[low, high] for low, high in lattice.hasse()],
    }, indent=2))
    return 0


def _cmd_closure(args):
    members, kept = lattice.closure_trace(set(args.letters))
    label = lattice.minimal_label(members)
    if args.format == "json":
        print(json.dumps({
            "input": "".join(sorted(set(args.letters))),
            "members": "".join(sorted(members)),
            "label": label,
            "preserves": list(kept),
        }, indent=2))
        return 0
    print("input: %s" % ("".join(sorted(set(args.letters))) or "-"))
    print("preserves: %s" % (",".join(kept) or "-"))
    print("closed: %s" % ("".join(sorted(members)) or "-"))
    print("label: %s" % label)
    return 0


def _cmd_classify(args):
    bc = behaviors.classify(args.behavior)
    detail = bc.name if bc.kind == "named" else "order %d, %s" % (bc.order, bc.sense)
    if args.format == "json":
        print(json.dumps({"class": bc.kind, "detail": detail}, indent=2))
    else:
        print("%s: %s" % (bc.kind, detail))
    return 0


def _cmd_witness(args):
    element = lattice.find(args.label)
    rel = args.relation
    relations.arity(rel)
    w = preservation.find_witness(element.members, rel)
    if w is None:
        print("%s preserves %s at every size; no witness exists" % (args.label, rel))
        return 1
    if args.format == "json":
        print(json.dumps({
            "label": args.label,
            "relation": w.relation,
            "pattern": pattern_to_text(w.pattern),
            "points": [x + 1 for x in w.points],
            "word": list(w.moves),
            "image_pattern": pattern_to_text(w.image_pattern),
            "image_points": [x + 1 for x in w.image_points],
        }, indent=2))
        return 0
    print("relation: %s" % w.relation)
    print("pattern: %s" % pattern_to_text(w.pattern))
    print("points: %s" % ",".join("p%d" % (x + 1) for x in w.points))
    print("word: %s" % " ; ".join(w.moves))
    print("image pattern: %s" % pattern_to_text(w.image_pattern))
    print("image points: %s" % ",".join("p%d" % (x + 1) for x in w.image_points))
    return 0


def _cmd_orbits(args):
    cs = orbits.constant_set(args.pattern, [
        _sample_point(c + 1, args.pattern.n, "constant") for c in args.constants])
    table = orbits.cells_of(cs)
    ordered = sorted(table)
    if args.format == "json":
        print(json.dumps({
            "pattern": pattern_to_text(args.pattern),
            "constants": sorted(c + 1 for c in cs.constants),
            "cells": [
                {"row": cell.row, "col": cell.col,
                 "points": [p + 1 for p in table[cell]]}
                for cell in ordered],
        }, indent=2))
        return 0
    print("pattern: %s" % pattern_to_text(args.pattern))
    print("constants: %s"
          % (",".join("p%d" % (c + 1) for c in sorted(cs.constants)) or "-"))
    for cell in ordered:
        print("cell (%d,%d): %s"
              % (cell.row, cell.col,
                 " ".join("p%d" % (p + 1) for p in table[cell])))
    return 0


def _sample_point(value, n, what):
    """0-based index of a 1-based sample point, checked against size n."""
    if type(value) is not int:
        raise ValueError("%s point %s is not an integer" % (what, json.dumps(value)))
    if not 1 <= value <= n:
        raise ValueError("%s point %d out of range 1..%d" % (what, value, n))
    return value - 1


def _load_sample(path):
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read sample: %s" % exc) from None
    if not isinstance(data, dict):
        raise ValueError("sample must be a JSON object")
    missing = [k for k in ("source_pattern", "image_pattern", "map") if k not in data]
    if missing:
        raise ValueError("sample lacks %s" % ", ".join(missing))
    pairs, constants = data["map"], data.get("constants", [])
    if not (isinstance(pairs, list)
            and all(isinstance(e, list) and len(e) == 2 for e in pairs)):
        raise ValueError("map must be a list of [source, image] pairs")
    if not isinstance(constants, list):
        raise ValueError("constants must be a list")
    for key in ("source_pattern", "image_pattern"):
        if not isinstance(data[key], str):
            raise ValueError("%s must be a string" % key)
    source = pattern_from_text(data["source_pattern"])
    image = pattern_from_text(data["image_pattern"])
    mapping = {}
    for s, d in pairs:
        s = _sample_point(s, source.n, "source")
        if s in mapping:
            raise ValueError("source point %d mapped twice" % (s + 1))
        mapping[s] = _sample_point(d, image.n, "image")
    constants = [_sample_point(c, source.n, "constant") for c in constants]
    return orbits.constant_set(source, constants), orbits.Sample(source, image, mapping)


def _report_cell(report):
    out = {
        "observed": {TYPE_NAMES[s]: TYPE_NAMES[d] for s, d in
                     sorted(report.observed.items())},
        "behaviors": [_behavior_text(b) for b in report.behaviors],
        "consistent": report.consistent,
        "counterexample": None,
    }
    if report.counterexample:
        (a, b), (c, d) = report.counterexample
        out["counterexample"] = [[a + 1, b + 1], [c + 1, d + 1]]
    return out


def _cmd_check_canonical(args):
    cs, sample = _load_sample(args.sample)
    report = orbits.check_canonical(cs, sample)
    cells = []
    for cell in sorted(report.cells):
        entry = {"row": cell.row, "col": cell.col,
                 "points": [p + 1 for p in report.cells[cell].points]}
        entry.update(_report_cell(report.cells[cell]))
        cells.append(entry)
    pairs = []
    for ca, cb in sorted(report.cell_pairs):
        rep = report.cell_pairs[(ca, cb)]
        entry = {"cells": [[ca.row, ca.col], [cb.row, cb.col]],
                 "points": [[p + 1 for p in rep.points[0]],
                            [p + 1 for p in rep.points[1]]]}
        entry.update(_report_cell(rep))
        pairs.append(entry)
    print(json.dumps({
        "canonical": report.canonical,
        "mixed": report.mixed,
        "cells": cells,
        "cell_pairs": pairs,
    }, indent=2))
    return 0 if report.canonical else 1


def _cmd_ramsey(args):
    result = ramsey.check_ramsey_witness(args.delta, args.gamma, args.omega)
    if args.format == "json":
        print(json.dumps({"result": result}))
    else:
        print({True: "true", False: "false"}.get(result, result))
    return 0 if result is True else 1


def _cmd_ramsey_search(args):
    result = ramsey.search_witness(args.gamma, args.omega, args.max_n)
    found = result.pattern is not None
    if args.format == "json":
        print(json.dumps({
            "pattern": pattern_to_text(result.pattern) if found else None,
            "infeasible": [pattern_to_text(p) for p in result.infeasible],
        }))
    else:
        print(pattern_to_text(result.pattern) if found else "none")
    for p in result.infeasible:
        print("warning: host %s over budget, skipped" % pattern_to_text(p),
              file=sys.stderr)
    return 0 if found else 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. "| head").  Point stdout at devnull so
        # the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
