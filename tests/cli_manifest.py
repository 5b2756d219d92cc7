"""Byte manifest of the permsym command line.

Each line of ``cli_manifest.txt`` is one command: the first 16 hex
digits of the sha256 of its exit code, stdout and stderr, the tag of the
input it reads on stdin ("-" for none), and its argv, shell-quoted.
The commands run in process through ``permsym.cli.run``, in a fresh
working directory that holds every input as a file named by its tag.
Help text is wrapped at COLUMNS=80 on write and on check.

    PYTHONPATH=src python tests/cli_manifest.py --check
    PYTHONPATH=src python tests/cli_manifest.py --write

``--check`` replays every command and lists the changed, missing and
extra lines; it exits 1 if there is any.  ``--write`` rewrites the file
from the code on the import path; a change that rewrites it lists the
changed lines in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from itertools import combinations, permutations, product
from pathlib import Path

import permsym
from permsym import cli, lattice, relations

MANIFEST = Path(__file__).with_name("cli_manifest.txt")
COLUMNS = "80"

COMMANDS = ("table", "lattice", "closure", "classify", "witness", "orbits",
            "check-canonical", "ramsey", "ramsey-search")
LETTERS = "abcdefghij"
TYPES = ("t1", "t2", "t3", "t4")
RAMSEY_PAIRS = (("12", "123"), ("1", "123"), ("21", "321"))
# (size, number of constants, a pair of images swapped) per seeded sample.
SEEDED_SAMPLES = ((6, 1, False), (6, 1, True), (20, 0, False), (20, 2, True),
                  (100, 3, False), (300, 1, True), (600, 2, False))


def pattern_text(ranks):
    """1-based text of a rank sequence, comma-separated above size 9."""
    sep = "," if len(ranks) > 9 else ""
    return sep.join(str(r + 1) for r in ranks)


def _sample(source, image, pairs, constants=None):
    data = {"source_pattern": source, "image_pattern": image, "map": pairs}
    if constants is not None:
        data["constants"] = constants
    return json.dumps(data)


def _seeded_sample(rng, n, k, swapped):
    """A map by one symmetry of the two orders, with two images swapped."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    kind = rng.choice(("id", "rev1", "rev2"))
    if kind == "rev1":
        image, target = ranks[::-1], [n - 1 - x for x in range(n)]
    elif kind == "rev2":
        image, target = [n - 1 - r for r in ranks], list(range(n))
    else:
        image, target = list(ranks), list(range(n))
    constants = sorted(rng.sample(range(n), k))
    if swapped:
        x, y = rng.sample([p for p in range(n) if p not in constants], 2)
        target[x], target[y] = target[y], target[x]
    return _sample(pattern_text(ranks), pattern_text(image),
                   [[p + 1, target[p] + 1] for p in range(n)],
                   [c + 1 for c in constants])


def inputs():
    """Tag -> text of every input a command reads, as a file or on stdin."""
    golden = (Path(permsym.__file__).parent / "data" / "golden_table.csv").read_text()
    rows = golden.splitlines()
    first = rows[1].split(",")
    first[1] = "1" if first[1] == "0" else "0"
    rows[1] = ",".join(first)
    out = {
        "golden-flipped.csv": "\n".join(rows) + "\n",
        "golden-bad-header.csv": "label,lt1\nbottom,0\n",
        "ci-canonical.json": _sample("2413", "3142",
                                     [[1, 1], [2, 2], [3, 3], [4, 4]], [2]),
        "ci-conflict.json": _sample("123456", "123465", [[4, 4], [5, 5], [6, 6]], [3]),
        "readme.json": _sample("12345", "12354", [[1, 1], [2, 2], [4, 4], [5, 5]], [3]),
        "no-constants.json": _sample("132", "231", [[1, 1], [2, 2], [3, 3]]),
        "empty-map.json": _sample("21", "12", []),
        "not-json.json": "{",
        "not-object.json": "[]",
        "no-keys.json": "{}",
        "map-not-list.json": _sample("12", "12", {"1": 1}),
        "map-short-pair.json": _sample("12", "12", [[1]]),
        "constants-not-list.json": _sample("12", "12", [[1, 1]], "x"),
        "pattern-not-string.json": _sample(12, "12", [[1, 1]]),
        "pattern-bad-text.json": _sample("1a", "12", [[1, 1]]),
        "pattern-empty.json": _sample("", "", []),
        "source-out-of-range.json": _sample("12", "12", [[3, 1]]),
        "image-out-of-range.json": _sample("12", "12", [[1, 0]]),
        "mapped-twice.json": _sample("123", "123", [[1, 1], [1, 2]]),
        "point-not-integer.json": _sample("12", "12", [[1.5, 1]]),
        "point-bool.json": _sample("12", "12", [[True, 1]]),
        "constant-out-of-range.json": _sample("12", "12", [[1, 1]], [4]),
        "constant-repeated.json": _sample("123", "123", [[1, 1]], [2, 2]),
    }
    rng = random.Random(1405)
    for n, k, swapped in SEEDED_SAMPLES:
        tag = "seeded-%d-%d%s.json" % (n, k, "-swapped" if swapped else "")
        out[tag] = _seeded_sample(rng, n, k, swapped)
    return out


def _patterns(max_size):
    for n in range(1, max_size + 1):
        for perm in permutations(range(n)):
            yield pattern_text(perm)


def commands():
    """Every (argv, stdin tag) of the manifest, in manifest order."""
    out = [[], ["--help"], ["bogus"]]
    for name in COMMANDS:
        out += [[name, "--help"], [name], [name, "--bogus"]]

    out += [["table"], ["table", "--format", "json"],
            ["table", "--diff"], ["table", "--diff", "--format", "json"],
            ["table", "--format", "text"]]
    for fmt in ("csv", "json"):
        out.append(["table", "--diff", "--golden", "golden-flipped.csv", "--format", fmt])
    out += [["table", "--golden", "golden-flipped.csv"],
            ["table", "--diff", "--golden", "missing.csv"],
            ["table", "--diff", "--golden", "golden-bad-header.csv"]]

    out += [["lattice"], ["lattice", "--format", "dot"],
            ["lattice", "--format", "text"], ["lattice", "--count-only"],
            ["lattice", "--count-only", "--format", "dot"]]

    for label in [x.name for x in lattice.enumerate_lattice()]:
        for rel in relations.RELATION_NAMES:
            out.append(["witness", label, rel])
            out.append(["witness", label, rel, "--format", "json"])
    out += [["witness", "zz", "r1"], ["witness", "e", "zz"],
            ["witness", "e", "cyc1", "--format", "csv"]]

    for k in range(len(LETTERS) + 1):
        for letters in combinations(LETTERS, k):
            out.append(["closure", "".join(letters), "--format", "json"])
    for letters in ("", "a", "h", "ai", "hea", LETTERS, "xyz", "a b", "A"):
        out.append(["closure", letters])

    for images in product(TYPES, repeat=2):
        behavior = ",".join(images)
        out.append(["classify", "--behavior", behavior])
        out.append(["classify", "--behavior", behavior, "--format", "json"])
    for behavior in ("t1", "t5,t1", "t1,t2,t3", "T1, T2"):
        out.append(["classify", "--behavior", behavior])

    for text in _patterns(5):
        n = len(text)
        middle = (n + 1) // 2
        spread = sorted({1, middle, n})
        for constants in dict.fromkeys(
                (None, str(middle), ",".join(map(str, spread)))):
            argv = ["orbits", "--pattern", text]
            if constants is not None:
                argv += ["--constants", constants]
            out.append(argv)
            out.append(argv + ["--format", "json"])
    # a size-10 pattern in its comma text form
    argv = ["orbits", "--pattern", "2,10,1,3,4,5,6,7,8,9", "--constants", "2"]
    out += [argv, argv + ["--format", "json"]]
    for pattern, constants in (("0", None), ("", None), ("123", "4"),
                               ("213", "1,,3"), ("213", "2,2"), ("213", ",")):
        argv = ["orbits", "--pattern", pattern]
        if constants is not None:
            argv += ["--constants", constants]
        out.append(argv)

    for gamma, omega in RAMSEY_PAIRS:
        for delta in [*_patterns(5), "123456", "654321"]:
            argv = ["ramsey", "--delta", delta, "--gamma", gamma, "--omega", omega]
            out.append(argv)
            out.append(argv + ["--format", "json"])
    out += [["ramsey", "--delta", "0", "--gamma", "1", "--omega", "12"],
            ["ramsey", "--delta", "123", "--gamma", "", "--omega", "12"],
            ["ramsey", "--delta", "123", "--gamma", "1"]]
    # hosts settled by their first omega-copy and by the gamma-copy gate
    desc22, desc11, desc80 = (",".join(map(str, range(n, 0, -1))) for n in (22, 11, 80))
    out += [["ramsey", "--delta", desc22, "--gamma", "12", "--omega", desc11],
            ["ramsey", "--delta", desc80, "--gamma", "4321", "--omega", "54321",
             "--format", "json"]]
    for gamma, omega in RAMSEY_PAIRS:
        for max_n in range(-1, 7):
            argv = ["ramsey-search", "--gamma", gamma, "--omega", omega,
                    "--max-n", str(max_n)]
            out.append(argv)
            out.append(argv + ["--format", "json"])
    out += [["ramsey-search", "--gamma", "1", "--omega", "12", "--max-n", "x"],
            ["ramsey-search", "--gamma", "", "--omega", "", "--max-n", "2"]]

    out = [(argv, "-") for argv in out]
    for tag in inputs():
        if tag.endswith(".json"):
            out.append((["check-canonical", "-"], tag))
            out.append((["check-canonical", tag], "-"))
    out += [(["check-canonical", "-"], "-"),
            (["check-canonical", "missing.json"], "-"),
            (["check-canonical", "."], "-")]
    return list(dict.fromkeys((tuple(argv), tag) for argv, tag in out))


def run_command(argv, stdin):
    """Digest of one in-process command: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = saved
    blob = "%d\0%s\0%s" % (code, out.getvalue(), err.getvalue())
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def replay():
    """The manifest lines that the code on the import path produces."""
    texts = inputs()
    saved_cwd, saved_columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for tag, text in texts.items():
                Path(tag).write_text(text)
            return [("%s %s %s" % (run_command(argv, texts.get(tag, "")), tag,
                                   shlex.join(argv))).rstrip()
                    for argv, tag in commands()]
    finally:
        os.chdir(saved_cwd)
        if saved_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved_columns


def read():
    return MANIFEST.read_text().splitlines()


def compare(recorded, replayed):
    """(changed, missing, extra) lines of a recorded manifest.

    A line is keyed by its tag and argv.  Changed and missing lines are
    given as replayed; extra lines (no such command, or a repeated one)
    as recorded.
    """
    key = lambda line: line.split(" ", 1)[-1]
    old = {}
    extra = []
    for line in recorded:
        if key(line) in old:
            extra.append(line)
        old[key(line)] = line
    new = {key(line): line for line in replayed}
    changed = [line for k, line in new.items() if k in old and old[k] != line]
    missing = [line for k, line in new.items() if k not in old]
    extra += [line for k, line in old.items() if k not in new]
    return changed, missing, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the manifest")
    mode.add_argument("--check", action="store_true", help="replay and compare")
    args = ap.parse_args(argv)
    lines = replay()
    if args.write:
        MANIFEST.write_text("\n".join(lines) + "\n")
        print("wrote %d commands from %s" % (len(lines), permsym.__file__))
        return 0
    changed, missing, extra = compare(read(), lines)
    for prefix, group in (("changed", changed), ("missing", missing), ("extra", extra)):
        for line in group:
            print("%s: %s" % (prefix, line))
    print("replayed %d commands against %s: %d changed, %d missing, %d extra"
          % (len(lines), permsym.__file__, len(changed), len(missing), len(extra)))
    return 1 if changed or missing or extra else 0


if __name__ == "__main__":
    sys.exit(main())
