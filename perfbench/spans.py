"""In-memory spans for the layer replay, and the per-layer figures they give.

A span is one timed call: name ("<layer>.<what>"), an optional detail
(the letter of a letter_preserves call, the command of a cli.run),
start, end, the enclosing span and the replay step it belongs to.
Spans are kept in a list and written out when the replay ends.
"""

import time
from contextlib import contextmanager

LAYERS = ("patterns", "relations", "generators", "behaviors", "lattice",
          "preservation", "orbits", "ramsey", "cli")
LETTERS = "abcdefghij"
COMMANDS = ("table", "lattice", "closure", "classify", "witness", "orbits",
            "check-canonical", "ramsey", "ramsey-search")

# Replay steps timed as a whole: metric "<name>_s" sums their spans.
TIMED = (
    "lattice.enumerate_cold", "lattice.closure", "lattice.hasse", "lattice.export_dot",
    "behaviors.named_group_table", "behaviors.generated_subgroup",
    "preservation.letter_matrix", "preservation.full_table_rest",
    "preservation.find_witness", "preservation.diff_golden",
    "relations.eval", "generators.apply",
    "patterns.copies_of", "patterns.sub_pattern", "patterns.enumerate",
    "ramsey.search", "orbits.check_canonical", "orbits.cells_of", "patterns.pair_type",
)
COUNTS = ("preservation.witness_cells", "relations.evals", "generators.applies",
          "ramsey.copies", "orbits.pairs")

PER_LAYER = (
    [(name + "_s", "s") for name in TIMED]
    + [("preservation.letter_preserves.%s_s" % x, "s") for x in LETTERS]
    + [("ramsey.check_true_s", "s"), ("ramsey.check_false_s", "s")]
    + [(name, "count") for name in COUNTS]
    + [("cli.import_s", "s")]
    + [("cli.run_s.%s" % c, "s") for c in COMMANDS]
    + [("%s.self_s" % layer, "s") for layer in LAYERS]
    + [("%s.errors" % layer, "count") for layer in LAYERS]
    + [("trace.overhead_s", "s"), ("trace.spans", "count")]
)


class Tracer:
    """Records spans when enabled; with tracing off every call is a no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.step = None

    @contextmanager
    def span(self, name, detail=None):
        if not self.enabled:
            yield
            return
        parent = self.stack[-1] if self.stack else None
        record = [len(self.spans), name, detail, time.perf_counter(), None,
                  parent, self.step]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            yield
        finally:
            self.stack.pop()
            record[4] = time.perf_counter()

    def wrap(self, name, func, detail_from_arg=False):
        if not self.enabled:
            return func

        def traced(*args, **kwargs):
            detail = args[0] if detail_from_arg and args else None
            with self.span(name, detail):
                return func(*args, **kwargs)
        return traced

    def export(self):
        keys = ("id", "name", "detail", "start", "end", "parent", "step")
        return [dict(zip(keys, s)) for s in self.spans]


class LayerProxy:
    """A module seen through the tracer: its functions record spans."""

    def __init__(self, tracer, module, layer):
        self._tracer, self._module, self._layer = tracer, module, layer

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if callable(value) and not isinstance(value, type):
            return self._tracer.wrap("%s.%s" % (self._layer, name), value)
        return value


@contextmanager
def patched(namespace, replacements):
    """Temporarily rebind names in a module namespace."""
    saved = {name: namespace.__dict__[name] for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(namespace, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(namespace, name, value)


def layer_metrics(replay):
    """Per-layer figures from one traced replay's spans and counts."""
    spans = replay["spans"]
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    sums = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - children.get(s["id"], 0.0)
        layer = s["name"].split(".")[0]
        add("%s.self_s" % layer, own)
        if s["step"].startswith("cli:"):
            if s["name"] == "cli.run":
                add("cli.run_s.%s" % s["detail"], own)
        elif s["name"] == "preservation.letter_preserves":
            add("preservation.letter_preserves.%s_s" % s["detail"], dur)
        elif s["name"] == "ramsey.check":
            add("ramsey.check_%s_s" % s["detail"], dur)
        else:
            add(s["name"] + "_s", dur)
    for name, value in replay["counts"].items():
        sums[name] = value
    for layer in LAYERS:
        sums["%s.errors" % layer] = replay["errors"].get(layer, 0)
    sums["trace.spans"] = len(spans)
    return {name: (sums.get(name, 0.0), unit) for name, unit in PER_LAYER
            if name not in ("cli.import_s", "trace.overhead_s")}
