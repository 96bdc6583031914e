"""What the ``steinalg`` modules import and define.

Every name a module or a test module imports is read somewhere in it.  No
linter ships with the toolchain, so this walks each module's syntax tree:
an imported binding that never appears as a name (alone or as the root of
an attribute chain) is dead.  ``__future__`` imports are skipped, and so
are the package ``__init__``'s re-exports listed in ``__all__``.

Every module-level function, class or assigned name is used by the
package itself: some module reads it (as a name, an attribute or a
relative import), ``__all__`` exports it, or it is a decorated function
such as a click command.  A name that only tests reach is dead surface.

Every defaulted parameter of a package function (dunder methods aside) is
set by some package call to a function of that name, called as a bare
name or as an attribute: by keyword, by position (``self`` and ``cls``
not counted), or through ``*`` or ``**`` unpacking.  A default that no
package caller overrides is a parameter only tests reach.

Every method or property of a package class (dunder methods aside) is
read as an attribute somewhere in the package or in
``bench/layertrace.py``, which reads ``SparseOperator.entries``.  The
check goes by name, so a method whose name another class also uses
passes; a method that only tests call is dead surface.  A method that a
base class from outside the package defines (an override of a hook such
as click's ``Command.get_help_option``) is called by that base's code and
counts as used.

Every field of a package class (an annotated name in its body, such as a
dataclass field, or a ``self.<name> =`` assignment in it) is read as an
attribute somewhere in the package, the tests or ``bench/layertrace.py``.
The check goes by name as well; a field that nothing reads is write-only
state.

Every name the package exports (``__all__`` of its ``__init__``) is used
by another package module or listed in README's "Public API" section, so
an export that nothing reaches must be documented as public API.  README's
sentence "No package code calls ..." names exactly the exports that no
other package module loads, so it cannot go stale.

Every layer the benchmark traces (``LAYERS`` in ``bench/layertrace.py``)
is a callable of its module, so a deletion that would leave the benchmark
tracing an absent name fails here, and a bundle ``verify`` still calls
the two layers that ``bench/test_oracle.py`` asserts it reaches.

The command line runs on click and numpy alone: a fresh interpreter that
imports ``steinalg.cli`` loads no scipy module, builds no step table of
the ball-operator kernel, and numpy starts with one OpenBLAS thread unless
the caller chose otherwise.  Neither that import nor a ``scatter``,
``verify`` or ``eval`` call loads ``locale``.
"""

import ast
import builtins
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "steinalg"
TESTS = ROOT / "tests"


def literal(tree: ast.Module, name: str):
    """The value of a module-level ``name = <literal>``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def exports(tree: ast.Module) -> set[str]:
    return set(literal(tree, "__all__") or ())


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exports(tree))


def defined_names(node: ast.stmt) -> list[str]:
    """Module-level names a statement defines, minus decorated functions."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [] if node.decorator_list else [node.name]
    if isinstance(node, ast.ClassDef):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]


def loaded(tree: ast.Module) -> set[str]:
    """The names a module loads: as a name, an attribute or a relative
    import."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            used.update(a.name for a in node.names)
    return used


def unused_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level definition the package never
    loads and does not export."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used: set[str] = set()
    for tree in trees.values():
        used |= exports(tree) | loaded(tree)
    return sorted(
        f"{mod}.{name}"
        for mod, tree in trees.items()
        for node in tree.body
        for name in defined_names(node)
        if name not in used
    )


def api_list(readme: str) -> set[str]:
    """The names in backticks on the bullets of README's "Public API"
    section, continuation lines included."""
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets, inside = [], False
    for line in section.splitlines():
        inside = line.startswith("- ") or (inside and line.startswith("  "))
        if inside:
            bullets.append(line)
    return {name for line in bullets for name in re.findall(r"`(\w+)`", line)}


def unlisted_exports(sources: dict[str, str], listed: set[str]) -> list[str]:
    """Each name of the ``__init__``'s ``__all__`` that no other module
    loads and ``listed`` does not name."""
    others = [ast.parse(src) for mod, src in sources.items() if mod != "__init__"]
    used = set().union(*map(loaded, others))
    return sorted(exports(ast.parse(sources["__init__"])) - used - listed)


def uncalled_list(readme: str) -> set[str]:
    """The names in backticks in README's sentence "No package code calls
    ...", up to its semicolon."""
    sentence = readme.split("No package code calls ", 1)[1].split(";", 1)[0]
    return set(re.findall(r"`(\w+)`", sentence))


def attributes_read(sources: dict[str, str], readers: tuple[str, ...]) -> set[str]:
    """The names that ``sources`` or ``readers`` load as an attribute."""
    return {
        node.attr
        for src in [*sources.values(), *readers]
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _resolve(expr: ast.expr, namespace: dict):
    """The object a name or attribute chain denotes in ``namespace``."""
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(expr.value, namespace), expr.attr, None)
    return namespace.get(expr.id) if isinstance(expr, ast.Name) else None


def inherited_names(tree: ast.Module) -> dict[str, set[str]]:
    """For each class of a module, the attribute names that its bases from
    outside the package define, also through bases of its own module.  A
    base is resolved through the module's absolute imports and builtins."""
    namespace = dict(vars(builtins))
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name if a.asname else a.name.split(".")[0]
                namespace[a.asname or root] = importlib.import_module(root)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module != "__future__":
                module = importlib.import_module(node.module)
                for a in node.names:
                    namespace[a.asname or a.name] = getattr(module, a.name, None)
    classes = {c.name: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}

    def names(cls: ast.ClassDef) -> set[str]:
        found: set[str] = set()
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                found |= names(classes[base.id])
            elif isinstance(obj := _resolve(base, namespace), type):
                found |= set(dir(obj))
        return found

    return {name: names(cls) for name, cls in classes.items()}


def unused_methods(sources: dict[str, str], readers: tuple[str, ...]) -> list[str]:
    """``module.Class.method`` for each non-dunder method or property of
    a class in ``sources`` whose name neither ``sources`` nor ``readers``
    read as an attribute, and that no base from outside the package
    defines: such an override is called by the code that defines it."""
    read = attributes_read(sources, readers)
    found = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        inherited = inherited_names(tree)
        found += [
            f"{mod}.{cls.name}.{fn.name}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in read | inherited[cls.name]
        ]
    return sorted(found)


def write_only_fields(sources: dict[str, str], readers: tuple[str, ...]) -> list[str]:
    """``module.Class.name`` for each annotated field in a class body, or
    ``self.<name> =`` assignment in a class, whose name neither ``sources``
    nor ``readers`` read as an attribute."""
    read = attributes_read(sources, readers)
    found = []
    for mod, src in sources.items():
        for cls in ast.walk(ast.parse(src)):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)}
            names |= {
                n.attr
                for n in ast.walk(cls)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and getattr(n.value, "id", None) == "self"
            }
            found += [f"{mod}.{cls.name}.{name}" for name in names - read]
    return sorted(found)


def _callee(call: ast.Call):
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    return fn.attr if isinstance(fn, ast.Attribute) else None


def _sets(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` passes parameter ``name`` (at ``position`` among
    the positional parameters, None for keyword-only)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter that no
    package call to a function of that name sets."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := _callee(node)):
                calls.setdefault(name, []).append(node)
    found = []
    for mod, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (a.arg, None)
                for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None
            ]
            found.extend(
                f"{mod}.{fn.name}({name})"
                for name, position in defaulted
                if not any(_sets(c, name, position) for c in calls.get(fn.name, ()))
            )
    return sorted(found)


def test_no_module_imports_an_unused_name():
    sample = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom m import a, b as c\n"
        "__all__ = ['a']\nx = np.zeros(1)\n"
    )
    assert unused_imports(sample) == ["c", "os"]
    found = {
        f"{path.parent.name}/{path.name}": names
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_every_module_level_name_is_used():
    sample = {
        "a": (
            "from .b import f\n__all__ = ['g']\ndef g(): pass\ndef h(): pass\n"
            "@command\ndef cmd(): pass\nX = 1\nY: int = 2\nprint(Y)\n"
        ),
        "b": "def f(): pass\ndef k(): pass\nclass C: pass\nobj.C\n",
    }
    assert unused_names(sample) == ["a.X", "a.h", "b.k"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_names(sources) == []


def test_every_export_is_used_or_listed():
    readme = (
        "# pkg\n\n## Public API\n\nIntro naming `skipped`.\n\n"
        "- a: `f`,\n  `g`\n- `h` (see `k`)\n  `m`\n\n  `indented`\n"
        "## Next\n\n- `later`\n"
    )
    assert api_list(readme) == {"f", "g", "h", "k", "m"}
    sample = {
        "__init__": "from .a import f, g, h, u\n__all__ = ['f', 'g', 'h', 'u']\n",
        "a": "def f(): pass\ndef g(): f()\ndef h(): pass\ndef u(): pass\n",
        "b": "from .a import g\n",
    }
    assert unlisted_exports(sample, {"h"}) == ["u"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    listed = api_list((ROOT / "README.md").read_text())
    assert listed <= exports(ast.parse(sources["__init__"]))
    assert unlisted_exports(sources, listed) == []


def test_readme_names_the_exports_no_package_code_calls():
    readme = "Intro.  No package code calls `f`, `g` or\n`h`; `k` reads them.\n"
    assert uncalled_list(readme) == {"f", "g", "h"}
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    listed = uncalled_list((ROOT / "README.md").read_text())
    assert listed == set(unlisted_exports(sources, set()))


def test_every_method_is_used():
    sample = {
        "a": (
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def used(self): pass\n"
            "    @property\n"
            "    def prop(self): pass\n"
            "    @property\n"
            "    def stale(self): pass\n"
            "    def dead(self): return self.used()\n"
            "    def traced(self): pass\n"
            "def used(): pass\n"
        ),
        "b": "C().prop\nused()\ndead = 1\n",
    }
    reader = "class T:\n    def unread(self): pass\nc.traced\n"
    assert unused_methods(sample, (reader,)) == ["a.C.dead", "a.C.stale"]
    # an override of a base from outside the package is called by that
    # base's code, also through a subclass in the module; a method that
    # no base defines is still reported
    sample["c"] = (
        "import json\n"
        "class Enc(json.JSONEncoder):\n"
        "    def default(self, o): pass\n"
        "    def unhooked(self): pass\n"
        "class Sub(Enc):\n"
        "    def encode(self, o): pass\n"
    )
    expected = ["a.C.dead", "a.C.stale", "c.Enc.unhooked"]
    assert unused_methods(sample, (reader,)) == expected
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    layertrace = (ROOT / "bench" / "layertrace.py").read_text()
    assert unused_methods(sources, (layertrace,)) == []


def test_no_field_is_write_only():
    sample = {
        "a": (
            "@dataclass\nclass C:\n    used: int\n    stale: int = 0\n"
            "class E(Exception):\n"
            "    def __init__(self, m):\n        self.m = m\n        self.n = m\n"
        ),
        "b": "c.used\ne.n\nc.stale = 1\n",
    }
    assert write_only_fields(sample, ()) == ["a.C.stale", "a.E.m"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    readers.append((ROOT / "bench" / "layertrace.py").read_text())
    assert write_only_fields(sources, tuple(readers)) == []


def test_every_defaulted_parameter_is_set_by_the_package():
    sample = {
        "a": (
            "def f(x, *, z=2): pass\n"
            "def g(x, y=1): pass\n"
            "def h(x, y=1, z=2): pass\n"
            "def k(y=1): pass\n"
            "def p(x, y=1): pass\n"
            "class C:\n"
            "    def __init__(self, y=1): pass\n"
            "    def m(self, y=1): pass\n"
        ),
        "b": "f(0)\nobj.g(0, 5)\nh(*args)\nk(**kw)\np(0)\np(x=0)\nC().m(2)\n",
    }
    assert unset_defaults(sample) == ["a.f(z)", "a.p(y)"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unset_defaults(sources) == []


def test_every_traced_layer_is_defined(monkeypatch):
    tree = ast.parse((ROOT / "bench" / "layertrace.py").read_text())
    layers = literal(tree, "LAYERS")
    assert layers
    absent = [
        f"{mod}.{name}"
        for mod, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"steinalg.{mod}"), name, None))
    ]
    assert absent == []
    # bench/test_oracle.py asserts that a small traced bundle verify calls
    # these two layers; every steinalg reference to them is counted, as
    # layertrace rebinds them
    from click.testing import CliRunner

    from steinalg import cli

    calls = {"bundle.bstein_eval": 0, "repnorm.h_ball_operator": 0}
    for layer in calls:
        mod, name = layer.split(".")
        real = getattr(importlib.import_module(f"steinalg.{mod}"), name)

        def counting(*args, layer=layer, real=real, **kwargs):
            calls[layer] += 1
            return real(*args, **kwargs)

        for module in [m for k, m in sys.modules.items() if k.startswith("steinalg.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    args = ["verify", "--example", "bundle", "--indices", "1,2"]
    res = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert res.exit_code == 0
    assert all(calls.values()), calls


def _src_env(drop: str) -> dict:
    """This environment without ``drop``, with ``src`` first on the path."""
    env = {k: v for k, v in os.environ.items() if k != drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _fresh_import(env_threads):
    env = _src_env("OPENBLAS_NUM_THREADS")
    if env_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env_threads
    code = (
        "import json, os, sys\n"
        "import steinalg.cli\n"
        "from steinalg import repnorm\n"
        "print(json.dumps({'threads': os.environ.get('OPENBLAS_NUM_THREADS'),"
        " 'scipy': sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')),"
        " 'step_tables': repnorm._step_tables.cache_info().currsize}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy_and_one_blas_thread():
    # and builds no ball-operator step table: those wait for the first build
    assert _fresh_import(None) == {"threads": "1", "scipy": [], "step_tables": 0}
    assert _fresh_import("2") == {"threads": "2", "scipy": [], "step_tables": 0}


def test_no_cli_call_imports_locale():
    # click's own --help option translates its text with gettext, whose
    # first lookup imports locale; the CLI's option carries plain text
    code = (
        "import contextlib, io, json, sys\n"
        "import steinalg.cli\n"
        "seen = {'import': 'locale' in sys.modules}\n"
        "for args in (['scatter', '--indices', '1,2'],\n"
        "             ['verify', '--indices', '1,2'],\n"
        "             ['verify', '--example', 'bundle', '--indices', '1,2'],\n"
        "             ['eval', 'a']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            steinalg.cli.main(args)\n"
        "        except SystemExit as exc:\n"
        "            assert not exc.code, (args, exc.code)\n"
        "    seen[' '.join(args)] = 'locale' in sys.modules\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env("STEINALG_OUT_DIR"),
        capture_output=True, text=True, check=True,
    )
    seen = json.loads(out.stdout)
    assert len(seen) == 5
    assert not any(seen.values()), seen
