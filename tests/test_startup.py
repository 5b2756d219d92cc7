"""Start-up: a command imports only the modules it runs, and the package's
public names all still resolve."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permsym

SRC = str(Path(permsym.__file__).resolve().parent.parent)

# Every name `permsym` re-exported when its __init__ imported all modules.
REEXPORTS = """
    Pattern T1 T2 T3 T4 PAIR_TYPES REVERSED_TYPE pattern_from_text
    pattern_to_text from_points pair_type sub_pattern copies_of
    enumerate_patterns
    RELATION_NAMES arity evaluate
    GeneratorId REV1 REV2 REVREV SW turn_first turn_second apply inverse
    apply_word word_from_text word_to_text
    Behavior BehaviorClass behavior_of_word extend compose classify
    named_group_table subgroups
    Witness letter_witness letter_preserves
    ClosedSet closure closure_trace enumerate_lattice by_label join meet
    minimal_label hasse export_dot
    PreservationRow full_table golden_table load_golden diff_golden
    find_witness
    ConstantSet OrbitCell Sample constant_set cells_of check_canonical
    INFEASIBLE find_mono_copy check_ramsey_witness search_witness
""".split()
SUBMODULES = ("patterns", "relations", "generators", "behaviors", "letters",
              "lattice", "preservation", "orbits", "ramsey")


def _python(code, *flags):
    """Run code in a fresh interpreter; returns its stdout parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _modules_after(argv, *flags):
    """Exit code and sys.modules after cli.run(argv) in a fresh interpreter.

    The modules are recorded before the script imports json to print them.
    """
    return _python(
        "import io, sys, contextlib\n"
        "from permsym import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(%r)\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, modules]))" % (argv,), *flags)


def test_ramsey_command_loads_no_lattice_modules():
    code, modules = _modules_after(
        ['ramsey', '--delta', '123456', '--gamma', '12', '--omega', '123'])
    assert code == 0
    assert "permsym.ramsey" in modules
    for name in ("lattice", "letters", "preservation", "behaviors"):
        assert "permsym." + name not in modules
    assert "json" not in modules


def test_check_canonical_loads_no_behavior_modules(tmp_path):
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({
        "source_pattern": "2413", "image_pattern": "3142",
        "map": [[1, 1], [2, 2], [3, 3], [4, 4]], "constants": [2]}))
    code, modules = _modules_after(["check-canonical", str(sample)])
    assert code == 0
    assert "permsym.orbits" in modules
    for name in ("behaviors", "generators", "lattice", "letters", "preservation"):
        assert "permsym." + name not in modules


def test_table_command_reads_the_golden_csv_without_importlib_resources():
    # -S keeps site out: a .pth file in site-packages may import
    # importlib.resources itself and so hide what the command loads.
    code, modules = _modules_after(["table"], "-S")
    assert code == 0
    assert "permsym.preservation" in modules
    assert "importlib.resources" not in modules


def test_bare_import_reaches_submodules():
    got = _python(
        "import json, permsym\n"
        "g = permsym.generators\n"
        "res = g.apply(g.GeneratorId('rev1', None), permsym.patterns.Pattern((1, 0)))\n"
        "print(json.dumps([list(res.pattern.ranks), permsym.relations.evaluate("
        "'lt1', res.pattern, (0, 1))]))")
    assert got == [[0, 1], True]


def test_every_reexport_resolves_in_a_fresh_interpreter():
    names = REEXPORTS + list(SUBMODULES)
    got = _python(
        "import json, permsym\n"
        "from permsym import %s\n"
        "print(json.dumps([%s]))" % (", ".join(names), ", ".join(
            "%s is getattr(permsym, %r)" % (n, n) for n in names)))
    assert got == [True] * len(names)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        permsym.no_such_name
    with pytest.raises(ImportError):
        exec("from permsym import no_such_name", {})
