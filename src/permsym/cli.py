"""Command-line front end.

Commands emit deterministic reports: CSV for tables, JSON for structured
results, DOT for the lattice drawing.  Points, pattern digits and cut
positions are 1-based on the command line ("p1" is the first-order least
point); library indices are 0-based.

Exit codes: 0 success, 1 verification failure (mismatch, preserved cell
asked for a witness, failed check), 2 usage error or bad input.
"""

import argparse
import functools
import gc
import importlib
import os
import sys
import types

from .patterns import PAIR_TYPES, Behavior, pattern_from_text, pattern_to_text


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


def _nonempty_pattern(text):
    """pattern_from_text, less the size-0 pattern: no command takes it."""
    if not text.strip():
        raise ValueError("bad pattern text: ''")
    return pattern_from_text(text)


def _pattern(text):
    try:
        return _nonempty_pattern(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _behavior(text):
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 2 or any(p not in PAIR_TYPES for p in parts):
        raise argparse.ArgumentTypeError(
            "behavior must look like t1,t2 (images of the two pair types)")
    return Behavior(*parts)


def _points(text):
    """1-based point list, e.g. "2,3"; a blank list is no points."""
    parts = [part.strip() for part in text.split(",")] if text.strip() else []
    for part in parts:
        if not (part.isascii() and part.isdigit()) or int(part) < 1:
            raise argparse.ArgumentTypeError(
                "points are 1-based integers, got %r" % (part,))
    return [int(part) for part in parts]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage text."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


@functools.lru_cache(maxsize=1)
def _parser():
    # Python 3.13 wraps the {table,...} usage unlike 3.10-3.12; prog= keeps "permsym <cmd>".
    ap = _Parser(prog="permsym", usage="%(prog)s [-h] COMMAND ...", description=(
        "Verify the symmetry-group classification of two-order patterns."))
    sub = ap.add_subparsers(dest="command", required=True, prog="permsym")

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p = command("table", _cmd_table, "compute the preservation table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--diff", action="store_true",
                   help="report cells differing from the published table")
    p.add_argument("--golden", metavar="FILE",
                   help="alternative golden table CSV")

    p = command("lattice", _cmd_lattice, "enumerate the 39 closed groups")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.add_argument("--count-only", action="store_true")

    p = command("closure", _cmd_closure, "close a letter set under its invariants")
    p.add_argument("letters", help="letter set, e.g. abf")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("classify", _cmd_classify, "classify a pair behavior")
    p.add_argument("--behavior", type=_behavior, required=True,
                   metavar="T,T", help="images of the two pair types, e.g. t1,t2")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("witness", _cmd_witness, "show a violating move word for a cell")
    p.add_argument("label", help="group label, e.g. e")
    p.add_argument("relation", help="relation name, e.g. cyc1")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("orbits", _cmd_orbits, "orbit cells relative to constants")
    p.add_argument("--pattern", type=_pattern, required=True)
    p.add_argument("--constants", type=_points, default=[],
                   metavar="LIST", help="1-based point list, e.g. 2,3")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("check-canonical", _cmd_check_canonical,
                "behavior report for a sampled map (JSON file or '-')")
    p.add_argument("sample", help="JSON file with source_pattern, image_pattern, map, constants")

    p = command("ramsey", _cmd_ramsey, "exhaustive Ramsey check on a host")
    p.add_argument("--delta", type=_pattern, required=True)
    p.add_argument("--gamma", type=_pattern, required=True)
    p.add_argument("--omega", type=_pattern, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("ramsey-search", _cmd_ramsey_search,
                "smallest host passing the Ramsey check")
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
    try:
        return args.run(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _show(args, report, lines, indent=2):
    """Print the JSON report or the text lines, as --format asks."""
    if args.format == "json":
        print(json.dumps(report, indent=indent))
    else:
        print("\n".join(lines))


def _point_list(points, sep=","):
    """1-based text of 0-based points, e.g. "p1,p3"."""
    return sep.join("p%d" % (p + 1) for p in points)


def _table_order(rows):
    order, _ = preservation.golden_table()
    by_label = {row.label: row for row in rows}
    return [by_label[label] for label in ("bottom",) + order + ("sym",)]


def _cmd_table(args):
    if args.golden and not args.diff:
        raise ValueError("--golden needs --diff")
    result = preservation.full_table()
    golden = preservation.load_golden(args.golden) if args.golden else None
    rows = _table_order(result.rows)
    if args.diff:
        diffs = preservation.diff_golden(result.rows, golden)
        _show(args, {"mismatches": [d._asdict() for d in diffs]},
              ["%d mismatches" % len(diffs)] + [
                  "  %s %s: golden=%s computed=%s"
                  % (d.label, d.relation, int(d.golden),
                     "missing" if d.computed is None else int(d.computed))
                  for d in diffs])
        return 1 if diffs else 0
    _show(args, {
        "rows": [
            {"label": row.label,
             "bits": {rel: bit for rel, bit in
                      zip(relations.RELATION_NAMES, row.bits)}}
            for row in rows],
    }, ["label," + ",".join(relations.RELATION_NAMES)] + [
        row.label + "," + ",".join(str(int(b)) for b in row.bits) for row in rows])
    return 0


def _cmd_lattice(args):
    elements = lattice.enumerate_lattice()
    if args.count_only:
        print(len(elements))
        return 0
    if args.format == "dot":
        sys.stdout.write(lattice.export_dot())
        return 0
    _show(args, {
        "count": len(elements),
        "elements": [
            {"label": x.name, "members": "".join(sorted(x.members))}
            for x in elements],
        "covers": [[low, high] for low, high in lattice.hasse()],
    }, ["%s: %s" % (x.name, "".join(sorted(x.members)) or "-") for x in elements])
    return 0


def _cmd_closure(args):
    members, kept = lattice.closure_trace(set(args.letters))
    letters = "".join(sorted(set(args.letters)))
    closed = "".join(sorted(members))
    label = lattice.minimal_label(members)
    _show(args, {
        "input": letters,
        "members": closed,
        "label": label,
        "preserves": list(kept),
    }, ["input: %s" % (letters or "-"),
        "preserves: %s" % (",".join(kept) or "-"),
        "closed: %s" % (closed or "-"),
        "label: %s" % label])
    return 0


def _cmd_classify(args):
    bc = behaviors.classify(args.behavior)
    detail = bc.name if bc.kind == "named" else "order %d, %s" % (bc.order, bc.sense)
    _show(args, {"class": bc.kind, "detail": detail}, ["%s: %s" % (bc.kind, detail)])
    return 0


def _cmd_witness(args):
    element = lattice.find(args.label)
    rel = args.relation
    w = preservation.find_witness(element.members, rel)
    if w is None:
        _show(args, {"label": args.label, "relation": rel, "word": None},
              ["%s preserves %s at every size; no witness exists" % (args.label, rel)])
        return 1
    _show(args, {
        "label": args.label,
        "relation": w.relation,
        "pattern": pattern_to_text(w.pattern),
        "points": [x + 1 for x in w.points],
        "word": list(w.moves),
        "image_pattern": pattern_to_text(w.image_pattern),
        "image_points": [x + 1 for x in w.image_points],
    }, ["relation: %s" % w.relation,
        "pattern: %s" % pattern_to_text(w.pattern),
        "points: %s" % _point_list(w.points),
        "word: %s" % " ; ".join(w.moves),
        "image pattern: %s" % pattern_to_text(w.image_pattern),
        "image points: %s" % _point_list(w.image_points)])
    return 0


def _cmd_orbits(args):
    cs = orbits.constant_set(args.pattern, [
        _sample_point(c, args.pattern.n, "constant") for c in args.constants])
    table = orbits.cells_of(cs)
    ordered = sorted(table)
    _show(args, {
        "pattern": pattern_to_text(args.pattern),
        "constants": sorted(c + 1 for c in cs.constants),
        "cells": [
            {"row": cell.row, "col": cell.col,
             "points": [p + 1 for p in table[cell]]}
            for cell in ordered],
    }, ["pattern: %s" % pattern_to_text(args.pattern),
        "constants: %s" % (_point_list(sorted(cs.constants)) or "-")] + [
        "cell (%d,%d): %s" % (cell.row, cell.col, _point_list(table[cell], " "))
        for cell in ordered])
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
    except (ValueError, RecursionError) as exc:
        raise ValueError("sample is not JSON: %s" % exc) from None
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
    source = _nonempty_pattern(data["source_pattern"])
    image = _nonempty_pattern(data["image_pattern"])
    mapping = {}
    for s, d in pairs:
        s = _sample_point(s, source.n, "source")
        if s in mapping:
            raise ValueError("source point %d mapped twice" % (s + 1))
        mapping[s] = _sample_point(d, image.n, "image")
    constants = [_sample_point(c, source.n, "constant") for c in constants]
    return orbits.constant_set(source, constants), orbits.Sample(source, image, mapping)


def _report_entry(entry, report):
    """A check-canonical cell or cell-pair entry, completed by its report."""
    entry.update(
        observed=dict(sorted(report.observed.items())),
        behaviors=[",".join(b) for b in report.behaviors],
        consistent=report.consistent,
        counterexample=None)
    if report.counterexample:
        (a, b), (c, d) = report.counterexample
        entry["counterexample"] = [[a + 1, b + 1], [c + 1, d + 1]]
    return entry


def _cmd_check_canonical(args):
    cs, sample = _load_sample(args.sample)
    report = orbits.check_canonical(cs, sample)
    print(json.dumps({
        "canonical": report.canonical,
        "mixed": report.mixed,
        "cells": [
            _report_entry({"row": cell.row, "col": cell.col,
                           "points": [p + 1 for p in rep.points]}, rep)
            for cell, rep in sorted(report.cells.items())],
        "cell_pairs": [
            _report_entry({"cells": [[ca.row, ca.col], [cb.row, cb.col]],
                           "points": [[p + 1 for p in part] for part in rep.points]}, rep)
            for (ca, cb), rep in sorted(report.cell_pairs.items())],
    }, indent=2))
    return 0 if report.canonical else 1


def _cmd_ramsey(args):
    result = ramsey.check_ramsey_witness(args.delta, args.gamma, args.omega)
    _show(args, {"result": result},
          [{True: "true", False: "false"}.get(result, result)], indent=None)
    return 0 if result is True else 1


def _cmd_ramsey_search(args):
    result = ramsey.search_witness(args.gamma, args.omega, args.max_n)
    found = result.pattern is not None
    _show(args, {
        "pattern": pattern_to_text(result.pattern) if found else None,
        "infeasible": [pattern_to_text(p) for p in result.infeasible],
    }, [pattern_to_text(result.pattern) if found else "none"], indent=None)
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
    gc.freeze()  # the heap dies with the process; skip tearing it down object by object
    sys.exit(code)


if __name__ == "__main__":
    main()
