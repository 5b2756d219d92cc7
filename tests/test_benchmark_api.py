"""Every permsym name the benchmark under perfbench/ reads must exist.

The layer replay skips a step, without an error, when a permsym name it
calls is gone, so a removed name would only show as that layer's metrics
reading 0.  This test parses perfbench/*.py and collects the attributes
read on each module bound by ``from permsym import ...`` and on each
``permsym.<module>.<name>`` chain, adds the names the replay reads from
``permsym.cli`` by string, and checks that each one resolves.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# replay.cli_commands wraps these attributes of permsym.cli, named by string.
CLI_NAMES = ("behaviors", "lattice", "orbits", "preservation", "ramsey",
             "relations", "pattern_from_text", "pattern_to_text")

# Replay references that no longer resolve: the replay skips their steps.
DEAD = {"lattice.generated_subgroup", "preservation.letter_matrix",
        "preservation.letter_preserves"}


def _references(source):
    """The "module.name" of each permsym attribute the source reads."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "permsym"
               for alias in node.names}
    refs = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            refs.add("%s.%s" % (modules[base.id], node.attr))
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id == "permsym"):
            refs.add("%s.%s" % (base.attr, node.attr))
    return refs


def _resolves(ref):
    module, name = ref.split(".")
    return hasattr(importlib.import_module("permsym." + module), name)


def test_references_are_collected():
    source = (
        "from permsym import lattice, orbits as orb\n"
        "def f(permsym, x):\n"
        "    lattice.hasse()\n"
        "    orb.cells_of(x)\n"
        "    permsym.generators.apply(x, x)\n"
        "    x.lattice.find\n"
        "    lattice.cached = None\n")
    assert _references(source) == {
        "lattice.hasse", "orbits.cells_of", "generators.apply"}


def test_benchmark_names_resolve():
    refs = {"cli." + name for name in CLI_NAMES}
    for path in sorted(PERFBENCH.glob("*.py")):
        refs |= _references(path.read_text())
    missing = sorted(ref for ref in refs - DEAD if not _resolves(ref))
    assert not missing, missing
