"""Rules the package source keeps: no cached check, no unused import,
no costly import at module level, no orphaned private or public name,
one writer of the command line's stdout, one renderer of command
output, one reader of exponent keys.

No check is cached (verify_aj's docstring): a cache would answer a
repeated question from an earlier run instead of proving it again.  The
other rules stand in for a linter; they read each module with ast.
"""
import ast
from importlib import import_module
from pathlib import Path
import pkgutil
import re

import pytest

import ajtwist

SRC = Path(ajtwist.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(ajtwist.__path__)))
def test_no_check_is_cached(name):
    module = import_module("ajtwist." + name)
    attrs = dict(vars(module))
    for attr, value in vars(module).items():
        if isinstance(value, type):
            attrs.update((attr + "." + m, v) for m, v in vars(value).items())
    assert [a for a, v in attrs.items() if hasattr(v, "cache_info")] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in bound if name not in used] == []


# Every command runs in a fresh interpreter, so a module-level import is
# paid by each request that loads the module.  Outside the package, only
# these stdlib modules are cheap enough; dataclasses (which loads
# inspect), typing, fractions or json would cost every command
# milliseconds.  mpmath is imported only inside the functions of
# volnum's volume half, so only volume loads it.
CHEAP_IMPORTS = {"argparse", "cmath", "collections", "functools",
                 "importlib", "itertools", "math", "operator", "os", "re",
                 "sys"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_level_imports_are_cheap(path):
    tree = ast.parse(path.read_text())
    loaded = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            loaded.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            loaded.add(node.module.split(".")[0])
    assert sorted(loaded - CHEAP_IMPORTS) == []


def test_private_module_names_are_used():
    # a module-level _name is private to the package, so something in
    # the package must refer to it: as a name, an attribute, or a string
    # naming it (getattr, tables of names)
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - used) == []


# public names that nothing in the package runs and the benchmark's
# traced runner does not wrap, each with what holds it
HELD_PUBLIC_NAMES = {
    "dilog": "acceptance criterion 9 checks it",
    "bloch_wigner": "acceptance criterion 9 checks it",
    "h_via_reduction": "ROADMAP items 11 and 17 make it load-bearing",
}


def test_public_names_are_run():
    # each _HOME name, and each public function and class defined at a
    # module's top level, is referred to in the package as a name or an
    # attribute, is wrapped by perfbench/traced.py (read as text, since
    # installing the wraps patches the package), or is held above; a
    # held name the package or the traced runner does use is a stale
    # entry
    public, used = set(ajtwist._HOME), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        public.update(node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = (ROOT / "perfbench" / "traced.py").read_text()
    wrapped = set(re.findall(r'\(\w+, "(\w+)"\)', traced))
    idle = public - used - wrapped
    assert sorted(idle) == sorted(HELD_PUBLIC_NAMES)


def _writes_stdout(node):
    if isinstance(node, ast.Attribute) and node.attr == "stdout":
        return isinstance(node.value, ast.Name) and node.value.id == "sys"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"):
        return not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                       for k in node.keywords)
    return False


def test_only_cli_main_writes_stdout():
    # main writes each command's result, to stdout or to --out-file; a
    # command that wrote its own would bypass --out and --out-file
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    assert any(_writes_stdout(node) for node in ast.walk(main))
    assert [node.lineno for node in ast.walk(tree)
            if _writes_stdout(node) and id(node) not in in_main] == []


# the labels of a coefficient diff's two columns in cli's text and JSON:
# verify-aj's constructed and recursive, rec-q1's computed and expected
DIFF_LABELS = {"constructed", "recursive", "computed", "expected"}


def _output_vocabulary(path):
    """What a module knows of an output format: json imports,
    to_json_dict definitions and diff labels spelled as strings."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and not node.level and (
                node.module.split(".")[0] == "json"):
            found.append(node.module)
        elif (isinstance(node, ast.FunctionDef)
              and node.name == "to_json_dict"):
            found.append(node.name)
        elif isinstance(node, ast.Constant) and node.value in DIFF_LABELS:
            found.append(node.value)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_only_cli_renders_output(path):
    # a report is a named tuple of facts, and cli alone turns it into
    # text or JSON; cli's own vocabulary is pinned so the rule cannot
    # go stale
    found = set(_output_vocabulary(path))
    assert found == ({"json"} | DIFF_LABELS if path.name == "cli.py"
                     else set())


def test_only_apoly_reads_the_summand_at_q1():
    # the growth system at q = 1 has one reader, the one verify-aj
    # certifies: only apoly takes shift quotients, and volnum takes its
    # growth equations from apoly
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(
                    node.func).rsplit(".", 1)[-1] == "shift_ratio"):
                readers.append(path.name)
    assert readers and set(readers) == {"apoly.py"}


# the exponent-key layout, and the names that spell it, stay in laurent
KEY_NAMES = {"NV", "VAR_INDEX", "_ZEROS"}


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "laurent.py"),
    ids=lambda path: path.name)
def test_only_laurent_reads_exponent_keys(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in KEY_NAMES]
        elif isinstance(node, ast.Attribute) and (
                node.attr in KEY_NAMES or (
                    node.attr in ("items", "keys")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "terms")):
            found.append(ast.unparse(node))
    assert found == []
