"""What a command loads, and the package names resolved on first access."""

import json
import os
import subprocess
import sys

import pytest

import leibcx

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# runs the CLI in a fresh interpreter, then prints the leibcx modules it
# loaded as one JSON line on stderr
_PROBE = """
import json, sys
from leibcx.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "leibcx")
print(json.dumps([code, loaded]), file=sys.stderr)
"""

_HOMOLOGY = {
    "leibcx", "leibcx.algebras", "leibcx.catalog", "leibcx.cli",
    "leibcx.complexes", "leibcx.errors", "leibcx.exactla", "leibcx.report",
    "leibcx.words"}

_LOADS = {
    ("validate", "catalog:abelian1"): {
        "leibcx", "leibcx.algebras", "leibcx.catalog", "leibcx.cli",
        "leibcx.errors", "leibcx.report", "leibcx.words"},
    ("homology", "catalog:sl2", "--max-degree", "3"): _HOMOLOGY,
    # the homology table relabelled: cochains is not loaded
    ("cohomology", "catalog:sl2", "--max-degree", "3"): _HOMOLOGY,
    # DGLA and dgla_suite, read through complexes, load battery
    ("dr", "catalog:L2", "--max-degree", "3"): _HOMOLOGY | {"leibcx.battery"},
}


def test_each_command_loads_only_the_modules_it_runs():
    env = dict(os.environ, PYTHONPATH=SRC)
    # the interpreters start at once, so the test costs about one start
    procs = {argv: subprocess.Popen(
        [sys.executable, "-c", _PROBE, *argv, "--format", "json"], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for argv in _LOADS}
    for argv, proc in procs.items():
        _, err = proc.communicate(timeout=60)
        code, loaded = json.loads(err.strip().splitlines()[-1])
        assert code == 0
        assert set(loaded) == _LOADS[argv], argv


def test_moved_names_are_the_objects_of_their_new_homes():
    # complexes reads these from battery on first access, and cochains
    # imports cohomology from complexes: one object under both names
    from leibcx import battery, cochains, complexes
    for name in ("DGLA", "dgla_suite", "loday_matrix", *complexes._BATTERY):
        obj = getattr(complexes, name)
        assert obj is vars(battery)[name], name
        assert obj.__module__ == "leibcx.battery", name
    assert cochains.cohomology is vars(complexes)["cohomology"]
    assert cochains.cohomology.__module__ == "leibcx.complexes"
    with pytest.raises(AttributeError, match="no_such_name"):
        complexes.no_such_name


def test_package_names_are_those_of_their_home_modules():
    assert len(leibcx.__all__) == 41
    for name in leibcx.__all__:
        obj = getattr(leibcx, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("leibcx."), name
        assert getattr(home, name) is obj, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from leibcx import *", namespace)
    assert set(leibcx.__all__) <= set(namespace)
    for name in leibcx.__all__:
        assert namespace[name] is getattr(leibcx, name)


def test_dir_lists_every_name():
    assert set(leibcx.__all__) <= set(dir(leibcx))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        leibcx.no_such_name
    assert not hasattr(leibcx, "no_such_name")
    with pytest.raises(ImportError):
        exec("from leibcx import no_such_name", {})
