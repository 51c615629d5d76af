"""Every top-level function, class and method in the package is reachable from
``centrelat verify``, ``calc``, ``gen`` or the benchmark.

Code that no command and no benchmark workload runs is still code to read,
test and keep working; this guard reports it.  The graph is built on names:
a definition is reached when a name it is defined under is read by code
already reached.  The roots are ``cli.main``, each module's top-level
statements (which run on import, such as the ``SUITES`` and
``BUILTIN_RULES`` tables) and every name ``bench/*.py`` reads in code.  A
string is not a read: the benchmark's tracer looks up the functions it wraps
by the names in its ``TARGETS`` and skips a name that does not exist, so a
string never makes code run.  A class reached brings its body, bases,
decorators and dunder methods with it; any other method is reached when its
class is and its name is read.  Imports and annotations are not reads.
``ALLOWED`` names the definitions that stay without a command reaching them,
each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "centrelat"

#: Unreached definitions that stay, by qualified name, with the reason.
ALLOWED = {
    "lattice.modulus_phase_oracle": "demo 01 shows it, and the tests use it as the modulus oracle",
    "sequence.compactness_check": "demo 04 shows it; ROADMAP item 9 is where verify starts "
                                  "running it",
    "sequence.CompactnessVerdict": "compactness_check's verdict, shown by demo 04",
    "sequence.sequence_spectrum": "demo 04 shows the certified spectrum",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def reads(nodes) -> set[str]:
    """The names and attribute names that ``nodes`` load, annotations left out."""
    found: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        for name, child in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            stack.extend(c for c in (child if isinstance(child, list) else [child])
                         if isinstance(c, ast.AST))
    return found


def _definitions(modules: dict[str, str]):
    """Each definition's qualified name, the name it is read by, its class
    (None at top level) and the nodes it loads names from; and the nodes of
    the modules' top-level statements."""
    defs, top = {}, []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.append(node)
                continue
            qual = f"{module}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                defs[qual] = (node.name, None, [node])
                continue
            own = [*node.bases, *node.keywords, *node.decorator_list]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    defs[f"{qual}.{item.name}"] = (item.name, qual, [item])
                else:
                    own.append(item)
            defs[qual] = (node.name, None, own)
    return defs, top


def unreached(modules: dict[str, str], entry: str, extra_reads=()) -> list[str]:
    """The qualified names of the definitions in ``modules`` (module name to
    source) that neither ``entry``, the modules' top-level statements nor
    the names in ``extra_reads`` reach."""
    defs, top = _definitions(modules)
    read = reads(top) | set(extra_reads)
    reached = {entry}
    read |= reads(defs[entry][2])
    grew = True
    while grew:
        grew = False
        for qual, (name, owner, nodes) in defs.items():
            if qual not in reached and name in read and (owner is None or owner in reached):
                reached.add(qual)
                read |= reads(nodes)
                grew = True
    return sorted(set(defs) - reached)


def problems(modules: dict[str, str], entry: str, extra_reads, allowed) -> list[str]:
    """Unreached definitions not in ``allowed``, and entries of ``allowed``
    that name no unreached definition (one deleted, renamed or now reached)."""
    missing = unreached(modules, entry, extra_reads)
    return ([f"unreached: {q}" for q in missing if q not in allowed]
            + [f"stale allowlist entry: {q}" for q in sorted(allowed) if q not in missing])


def _package() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def _bench_reads() -> set[str]:
    """The names bench/*.py reads in code."""
    return reads([ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))])


SYNTHETIC = '''
import json

def used(x):
    return helper(x)

def helper(x):
    return x

def orphan():
    return used(1)

def suite_a(out):
    return out

TABLE = {"a": suite_a}

class Box:
    def __init__(self):
        self.x = inner()

    def __len__(self):
        return 0

    def size(self):
        return 1

    def spare(self):
        return 2

def inner():
    return 0

def main():
    return used(Box().size())

def annotated(x: "Later") -> Later:
    return x

class Later:
    pass
'''


def test_guard_finds_unreached_functions_and_methods():
    # unreached: a function, a method, a function read by nothing reached and
    # a class named only in annotations.  Reached: the dunder methods, the
    # function read only as a dict value and the one read only in __init__
    assert unreached({"m": SYNTHETIC}, "m.main") == ["m.Box.spare", "m.Later", "m.annotated",
                                                     "m.orphan"]
    # a name read outside the package, as bench/ reads one, reaches it; a
    # class named only in annotations stays unreached
    assert unreached({"m": SYNTHETIC}, "m.main", {"spare", "orphan", "annotated"}) == ["m.Later"]
    # a method is not reached by its name while its class is unreached
    assert "m.C.size" in unreached({"m": SYNTHETIC + "\nclass C:\n    def size(self):\n"
                                                     "        return 0\n"}, "m.main")


def test_guard_rejects_a_stale_allowlist_entry():
    allowed = {"m.orphan": "", "m.Box.spare": "", "m.Later": "", "m.annotated": ""}
    assert problems({"m": SYNTHETIC}, "m.main", (), allowed) == []
    assert problems({"m": SYNTHETIC}, "m.main", (), {**allowed, "m.deleted": ""}) == [
        "stale allowlist entry: m.deleted"]
    # an entry for a definition that is now reached is stale too
    assert problems({"m": SYNTHETIC}, "m.main", {"orphan"}, allowed) == [
        "stale allowlist entry: m.orphan"]
    assert problems({"m": SYNTHETIC}, "m.main", (), {}) == [
        "unreached: m.Box.spare", "unreached: m.Later", "unreached: m.annotated",
        "unreached: m.orphan"]


def test_a_name_bench_holds_only_as_a_string_is_not_a_read():
    # the tracer names compactness_check in TARGETS, and calls it only if
    # some command or workload does
    assert '"compactness_check"' in (ROOT / "bench" / "tracing.py").read_text()
    assert "compactness_check" not in _bench_reads()


def test_every_definition_is_reached_from_the_commands_or_the_benchmark():
    assert problems(_package(), "cli.main", _bench_reads(), ALLOWED) == []
