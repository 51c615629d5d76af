"""Every parameter with a default, of a function or method in the package, is
passed by some call in the package or the benchmark.

A default that no caller overrides is a constant that costs what an option
costs: a value to document, validate and keep working that no command and no
workload sets.  Such a value belongs in a module constant; this guard
reports the parameter.  Dataclass fields are data, not parameters, and are
not checked.

The calls are found on names, as ``test_reachable.py`` finds reads: a call
passes a parameter when the name it calls (a plain name or an attribute) is
the function's or method's, and it gives the parameter by keyword or by
position (``self`` not counted).  Positions after a ``*args`` and keywords
in a ``**kwargs`` are not seen, nor is a call through a table.  ``ALLOWED``
names each parameter that only such calls pass, with its reason; an entry
for a parameter that a visible call passes, or that no longer exists, fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "centrelat"

_TABLE = "bundle_from_json calls each reader through its read[key](doc, key) table"
_RULES = ("the builtin rules are called through make(**params) in io.sequence_from_json "
          "and BUILTIN_RULES[name](...) in generate.random_sequence")

#: Defaulted parameters passed only by calls that the name graph cannot see.
ALLOWED = {
    "io.measure_from_json.where": _TABLE,
    "io.sequence_from_json.where": _TABLE,
    "sequence.constant.c": _RULES,
    "sequence.shifted_reciprocal.shift": _RULES,
    "sequence.geometric.ratio": _RULES,
}


def defaulted(modules: dict[str, str]) -> dict[str, tuple[str, str, int | None]]:
    """Each defaulted parameter of a top-level function or method in
    ``modules`` (module name to source), by qualified name: the name its
    callers call, the parameter's name and its position (None if it is
    keyword-only)."""
    found = {}
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(f"{module}.{node.name}", node, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [(f"{module}.{node.name}.{item.name}", item, 1)
                             for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qual, fn, skip in functions:
                args = fn.args
                positional = [*args.posonlyargs, *args.args]
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    found[f"{qual}.{positional[i].arg}"] = (fn.name, positional[i].arg, i - skip)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{qual}.{arg.arg}"] = (fn.name, arg.arg, None)
    return found


def passed(sources) -> set[tuple[str, str | int]]:
    """(called name, keyword) and (called name, position) for every argument
    that a call in ``sources`` gives visibly."""
    out: set[tuple[str, str | int]] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                out.add((name, i))
            out |= {(name, kw.arg) for kw in node.keywords if kw.arg is not None}
    return out


def problems(modules: dict[str, str], callers, allowed) -> list[str]:
    """Defaulted parameters that no visible call in ``callers`` passes and
    ``allowed`` does not name, and entries of ``allowed`` that name no such
    parameter."""
    given = passed(callers)
    never = {qual for qual, (name, arg, position) in defaulted(modules).items()
             if (name, arg) not in given and (name, position) not in given}
    return ([f"never passed: {q}" for q in sorted(never - set(allowed))]
            + [f"stale allowlist entry: {q}" for q in sorted(set(allowed) - never)])


def _package() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


SYNTHETIC = '''
def run(x, scale=1.0, *, seed=0, label="", fmt=None):
    return x

def main(rows):
    run(rows, 2.0)
    run(rows, label="a")
    run(*rows)
    return Box().size(rows, unit="m")

class Box:
    def size(self, rows, unit="cm", digits=2):
        return rows

TABLE = {"fmt": lambda text: text}

def build(**options):
    return run(1, **options)
'''


def test_guard_finds_defaults_that_no_call_passes():
    # scale by position, label by keyword and unit by keyword on a method;
    # seed and fmt only through **options, digits by nothing.  A *args
    # hides every position after it
    assert problems({"m": SYNTHETIC}, [SYNTHETIC], {}) == [
        "never passed: m.Box.size.digits", "never passed: m.run.fmt", "never passed: m.run.seed"]
    # a method's position does not count self
    calls = "Box().size(1, 'mm', 3)\nrun(1, seed=2, fmt=str)\n"
    assert problems({"m": SYNTHETIC}, [SYNTHETIC, calls], {}) == []
    assert problems({"m": SYNTHETIC}, [SYNTHETIC, "Box().size(1, 'mm')"], {}) == [
        "never passed: m.Box.size.digits", "never passed: m.run.fmt", "never passed: m.run.seed"]


def test_guard_rejects_a_stale_allowlist_entry():
    allowed = {"m.run.seed": "", "m.run.fmt": "", "m.Box.size.digits": ""}
    assert problems({"m": SYNTHETIC}, [SYNTHETIC], allowed) == []
    # an entry for a parameter that is now passed, or that does not exist, is stale
    assert problems({"m": SYNTHETIC}, [SYNTHETIC, "run(1, seed=3)"], allowed) == [
        "stale allowlist entry: m.run.seed"]
    assert problems({"m": SYNTHETIC}, [SYNTHETIC], {**allowed, "m.run.gone": ""}) == [
        "stale allowlist entry: m.run.gone"]


def test_every_default_is_set_by_some_call_in_the_package_or_the_benchmark():
    callers = [*_package().values(),
               *(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))]
    assert problems(_package(), callers, ALLOWED) == []
