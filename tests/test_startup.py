"""Start-up: a command imports only the modules it runs, and a bare
``import permsym`` loads no submodule until one is first used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permsym

SRC = str(Path(permsym.__file__).resolve().parent.parent)

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


@pytest.mark.parametrize("argv, expected", [
    (["table"], 0), (["table", "--diff"], 1),
    (["lattice", "--format", "text"], 0), (["lattice", "--format", "dot"], 0),
    (["lattice", "--count-only"], 0), (["closure", "h"], 0),
    (["classify", "--behavior", "t1,t3"], 0), (["witness", "de", "r1"], 0),
    (["witness", "bottom", "lt1"], 1),
    (["orbits", "--pattern", "2413", "--constants", "2"], 0),
    (["ramsey", "--delta", "123", "--gamma", "1", "--omega", "12"], 0),
    (["ramsey-search", "--gamma", "1", "--omega", "12"], 0),
])
def test_text_output_loads_no_json(argv, expected):
    code, modules = _modules_after(argv)
    assert code == expected
    assert "json" not in modules


@pytest.mark.parametrize("argv, absent", [
    (["witness", "de", "r1"], "csv"),
    (["classify", "--behavior", "t1,t3"], "permsym.generators"),
])
def test_command_skips_a_module_only_other_paths_need(argv, absent):
    # csv reads only the golden table; generators only move words
    code, modules = _modules_after(argv)
    assert code == 0
    assert absent not in modules


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


def test_submodules_load_on_first_access():
    got = _python(
        "import json, sys, permsym\n"
        "loaded = [m for m in sys.modules if m.startswith('permsym.')]\n"
        "print(json.dumps([loaded, [getattr(permsym, n) is sys.modules['permsym.' + n]"
        " for n in %r]]))" % (SUBMODULES,))
    assert got == [[], [True] * len(SUBMODULES)]


def test_unknown_attribute_raises():
    # names are imported from their modules, not from the package
    for name in ("no_such_name", "Pattern"):
        with pytest.raises(AttributeError, match="has no attribute %r" % (name,)):
            getattr(permsym, name)
        with pytest.raises(ImportError):
            exec("from permsym import %s" % name, {})
