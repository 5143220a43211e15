"""Every public function of the package is reached by some command, and
the formal-degree commands reach no function of intlinalg.

The commands below run in-process under sys.setprofile; each public
(non-underscore) function, method and property of src/tame_llc must be
entered at least once.  Code objects are matched by file and first line,
which works on every supported Python (co_qualname needs 3.11).  A
function that only the tests call belongs in the tests.
"""

import importlib
import inspect
import pkgutil
import sys

import tame_llc
from tame_llc import cli, intlinalg

COMMANDS = [
    ["selftest"],
    ["sweep", "--q", "3", "--max-n", "4", "--r", "3..4", "--root-number",
     "--format", "csv"],
    ["factors", "--q", "3", "--e", "2", "--f", "1", "--r", "3"],
    ["verify", "formal-degree", "--q", "3", "--e", "2", "--f", "1", "--r", "4"],
    ["verify", "root-number", "--q", "3", "--e", "2", "--f", "1", "--r", "4",
     "--format", "json"],
]

# name -> reason it stays in src/ although no command enters it
EXEMPT = {
    "tame_llc.ring_model.UnitGroupPresentation.order":
        "perfbench/tests calls it",
}


def _functions(obj):
    """The plain functions behind a function, method, classmethod,
    staticmethod, property or lru_cache wrapper."""
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    obj = inspect.unwrap(obj)
    return [obj] if inspect.isfunction(obj) else []


def public_functions():
    """(qualified name, (file, first line)) of every public function,
    method and property defined in the package."""
    out = {}
    for info in pkgutil.iter_modules(tame_llc.__path__, "tame_llc."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{k}", v) for k, v in vars(obj).items()
                           if not k.startswith("_")]
            for qual, member in members:
                for fn in _functions(member):
                    code = fn.__code__
                    out[f"{module.__name__}.{qual}"] = (code.co_filename,
                                                        code.co_firstlineno)
    return out


def test_every_public_function_is_reached_by_a_command(capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in COMMANDS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [cli.EXIT_OK] * len(COMMANDS)
    unreached = sorted(name for name, key in public_functions().items()
                       if key not in entered and name not in EXEMPT)
    assert not unreached, (f"{len(unreached)} public functions no command "
                           "reaches:\n  " + "\n  ".join(unreached))


def test_exemptions_name_real_functions():
    assert set(EXEMPT) <= set(public_functions())


# the formal-degree identity, dim_delta and the adjoint factors: closed
# forms and sparse integer arithmetic, with no normal form or dense product
FORMAL_DEGREE_COMMANDS = [
    ["sweep", "--q", "3,5,7", "--max-n", "6", "--r", "2..4"],
    ["factors", "--q", "3", "--e", "4", "--f", "2", "--r", "2"],
]


def test_formal_degree_commands_enter_no_intlinalg_function(capsys):
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == intlinalg.__file__:
            entered.add(code.co_name)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in FORMAL_DEGREE_COMMANDS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [cli.EXIT_OK] * len(FORMAL_DEGREE_COMMANDS)
    assert not entered, sorted(entered)
