"""What each import and each command loads: names bind on first use."""
import pytest

from test_recurrence import _fresh

# modules that no check, level, stabilize or simulate command needs
_UNUSED = ("bipsand.enumeration", "bipsand.ferrers", "bipsand.motzkin", "bipsand.polyomino")


def _loaded_after_main(argv, modules):
    """Which of `modules` are loaded after main(argv) in a fresh process."""
    code = (
        "import contextlib, io, sys\n"
        "from bipsand.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        f"print(rc, [m for m in {modules!r} if m in sys.modules])"
    )
    return _fresh(code)


def test_import_loads_no_submodule():
    code = "import sys, bipsand; print([m for m in sys.modules if m.startswith('bipsand.')])"
    assert _fresh(code) == "[]\n"


@pytest.mark.parametrize("argv", [
    ["check", "3,1,3,2,3;2,0,4,3", "--model", "ssm"],
    ["check", '{"top": [0, 2, 2], "bottom": [2, 2, 3]}', "--model", "asm", "--format", "json"],
    ["level", "3,1,3,2,3;2,0,4,3"],
    ["stabilize", "2,1;0,2", "--model", "ssm", "--seed", "5"],
    ["stabilize", "2,1;0,2", "--model", "asm", "--format", "json"],
    ["simulate", "--model", "asm", "--m", "2", "--n", "2", "--steps", "20"],
    ["simulate", "--model", "ssm", "--m", "2", "--n", "2", "--steps", "20"],
], ids=["check", "check-json", "level", "stabilize-ssm", "stabilize-asm", "simulate-asm",
        "simulate-ssm"])
def test_commands_leave_the_combinatorial_modules_unloaded(argv):
    # a chain this short draws its bits in pure Python unless numpy is
    # already loaded: importing it would cost simulate about 0.15 s
    unused = _UNUSED + ("numpy",) * (argv[0] == "simulate")
    assert _loaded_after_main(argv, unused) == "0 []\n"


@pytest.mark.parametrize("argv", [
    ["check", "3,1,3,2,3;2,0,4,3", "--model", "ssm"],
    ["level", "3,1,3,2,3;2,0,4,3"],
    ["stabilize", "2,1;0,2", "--model", "asm"],
    ["stabilize", "2,1;0,2", "--model", "ssm", "--seed", "5"],
    ["simulate", "--model", "ssm", "--m", "2", "--n", "2", "--steps", "20"],
    ["census", "--m", "3", "--n", "3", "--model", "asm"],
    ["enumerate", "--m", "2", "--n", "2", "--model", "ssm"],
    ["biject", "--to", "ferrers", "0,2,2;2,2,2", "--model", "ssm"],
    ["biject", "--to", "polyomino", "1,1;2,2,2"],
    ["biject", "--to", "motzkin", "1,1;2,2,2"],
    ["biject", "--from", "motzkin", "UeDn"],
], ids=["check", "level", "stabilize-asm", "stabilize-ssm", "simulate", "census", "enumerate",
        "to-ferrers", "to-polyomino", "to-motzkin", "from-motzkin"])
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # the records are built by bipsand._record: importing dataclasses, and
    # inspect with it, would cost every process about 7 ms
    assert _loaded_after_main(argv, ("dataclasses", "inspect")) == "0 []\n"


def test_no_module_of_the_package_loads_dataclasses():
    code = (
        "import sys, bipsand, bipsand.cli\n"
        "for name in bipsand._EXPORTS:\n"
        "    getattr(bipsand, name)\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    assert _fresh(code) == "[]\n"


def test_chain_below_the_import_threshold_leaves_numpy_unloaded():
    # runs of 2,000 and _BLOCK_IMPORT - 1 steps stay in pure Python, and so
    # does one of _BLOCK_IMPORT steps at p = 1, which runs on the odometer;
    # one of _BLOCK_IMPORT steps below p = 1 loads numpy for its bit table
    code = (
        "import sys\n"
        "from bipsand import BipartiteShape, simulate\n"
        "from bipsand.model import _BLOCK_IMPORT\n"
        "print(2000 < _BLOCK_IMPORT - 1)\n"
        "for steps, p in ((2000, 0.5), (_BLOCK_IMPORT - 1, 0.5), (_BLOCK_IMPORT, 1.0),\n"
        "                 (_BLOCK_IMPORT, 0.5)):\n"
        "    simulate('ssm', BipartiteShape(2, 2), steps, 7, p)\n"
        "    print('numpy' in sys.modules)"
    )
    assert _fresh(code).split() == ["True", "False", "False", "False", "True"]


def test_a_long_run_imports_numpy_once_it_has_run_that_far():
    # 3 states read from a 10^6-step trajectory leave numpy unloaded; a run
    # past _BLOCK_IMPORT steps loads it at that step and draws the rest of its
    # bits from the table, the same bits as with numpy loaded throughout or
    # with no table at all
    code = (
        "import sys\n"
        "from itertools import islice\n"
        "import bipsand.model as model\n"
        "from bipsand import BipartiteShape, simulate, trajectory\n"
        "shape = BipartiteShape(2, 2)\n"
        "list(islice(trajectory('ssm', shape, 10**6, 1), 3))\n"
        "print('numpy' in sys.modules)\n"
        "table, calls = model._table_bits, []\n"
        "model._table_bits = lambda *args: calls.append(1) or table(*args)\n"
        "steps = model._BLOCK_IMPORT + 500\n"
        "cold = simulate('ssm', shape, steps, 3)\n"
        "print('numpy' in sys.modules, len(calls))\n"
        "print(simulate('ssm', shape, steps, 3) == cold, len(calls))\n"
        "model._BLOCK_BITS = 0\n"
        "print(simulate('ssm', shape, steps, 3) == cold, len(calls))\n"
    )
    assert _fresh(code).split() == ["False", "True", "1", "True", "2", "True", "2"]


def test_biject_loads_only_its_family():
    argv = ["biject", "--to", "ferrers", "0,2,2;2,2,2", "--model", "ssm"]
    modules = ("bipsand.ferrers", "bipsand.motzkin", "bipsand.polyomino")
    assert _loaded_after_main(argv, modules) == "0 ['bipsand.ferrers']\n"


def test_every_public_name_is_its_submodules_object():
    # the object itself, bound on the package, from the module that defines it
    code = (
        "import sys, bipsand\n"
        "bad = []\n"
        "for name in bipsand.__all__:\n"
        "    value = getattr(bipsand, name)\n"
        "    home = 'bipsand.' + bipsand._SOURCE[name]\n"
        "    if (value is not getattr(sys.modules[home], name) or vars(bipsand)[name] is not value\n"
        "            or getattr(value, '__module__', home) != home):\n"
        "        bad.append(name)\n"
        "print(len(bipsand.__all__), bipsand.__all__ == sorted(bipsand.__all__), bad)"
    )
    assert _fresh(code) == "59 True []\n"


def test_star_import_dir_and_submodules():
    code = (
        "import bipsand\n"
        "print(bipsand.model.prf64.__name__, bipsand.model is __import__('sys').modules['bipsand.model'])\n"
        "ns = {}\n"
        "exec('from bipsand import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == bipsand.__all__)\n"
        "print(set(bipsand.__all__) <= set(dir(bipsand)), 'recurrence' in dir(bipsand))"
    )
    assert _fresh(code) == "prf64 True\nTrue\nTrue True\n"


def test_unknown_name_raises_attribute_error():
    code = (
        "import sys, bipsand\n"
        "try:\n"
        "    bipsand.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(bipsand, 'cli'), [m for m in sys.modules if m.startswith('bipsand.')])"
    )
    assert _fresh(code) == "module 'bipsand' has no attribute 'no_such_name'\nFalse []\n"


def test_enumeration_loads_the_bijection_modules():
    # bench/tracing.py imports enumeration, model and recurrence, then looks up
    # every module it traces in sys.modules
    code = (
        "import sys, bipsand.enumeration\n"
        "print([m for m in ('bipsand.ferrers', 'bipsand.motzkin', 'bipsand.polyomino')"
        " if m not in sys.modules])"
    )
    assert _fresh(code) == "[]\n"
