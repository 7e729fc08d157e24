"""Every imported name in ``src/`` and ``tests/`` is used, every public name is
bound, and importing the package stays cheap.

The package ships without a linter, so this scan stands in for the
unused-import check: a name bound by ``import`` or ``from ... import`` must
be referenced somewhere in its module. ``__init__.py`` files are exempt
(their imports are re-exports), and so is ``from __future__``. The other
way round, a name deleted from a module must also leave its ``__all__`` and
the package's re-exports, and a ``_``-prefixed top-level name in ``src/``
must be read somewhere there, so a helper does not outlive its callers.

A time slack is stated once: the only float literals in ``(0, 1e-9]`` in the
package are the definitions of ``series.CONSTANT_SPREAD`` and
``series.TIME_SLACK``, so a tolerance cannot come back as a bare ``1e-12``.
A time is placed on a uniform grid once: outside ``series.py`` no ``floor``
or ``ceil`` is called but on one size (a reverb's sample count), and
``tension`` and ``ir_metrics`` do not name ``TIME_SLACK``, so every frame,
grid point and window position comes from ``series.grid_positions``. Notes
are expanded over a grid, and candidate note pairs listed, by one bounded loop:
``musical``, ``tension`` and ``ir_metrics`` expand ranges only through
``midi.expand_in_passes``.
In ``tension`` only the momentum's duration weights, ``_pc_weights``, expand
notes, and the cloud diameter does not read them.
The slack meets a grid in one function only, ``series.grid_positions``,
which shifts each time by it: it places every note time, and through
``hold_indices`` it holds every feature series and the dynamics' last-ended
note, in the one float form ``oracle_hold`` also uses. No other ``series``
function reads ``TIME_SLACK``, and ``series``, ``musical`` and ``tension``
name ``searchsorted`` nowhere: no grid is searched. A uniform grid is a
start, a step and a count: no ``np.arange(...) * step`` product in ``src/``
builds an array of grid times, and each series timestamps only the points it
keeps. The velocity line is fitted in closed form from exact integer sums: no
module in ``src/`` names ``linalg``, so a general solver, whose last bits can
depend on the row order and the BLAS build, does not come back.

Start-up cost is pinned by what gets imported, not by a time: the CLI must
not load the large scipy subpackages, and no function in ``src/`` may import
anything, so a cost cannot move unseen from start-up into a first call.

Every public name has one home: the package root binds exactly the names the
README's examples import from it, no name is in two modules' ``__all__``, and
every dotted ``pianoeval.<module>.<name>`` the README mentions resolves. The
README's self-contained example prints what its comments say. Every name
that ``tests/`` and ``perfbench/`` take by ``from pianoeval[.<module>] import``
is bound, so a deleted name fails here by name, not as a collection error of
the module that imports it.
"""

import ast
import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pianoeval"
MODULES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    used = set()
    by_string = []  # quoted annotations and __all__ entries name things by string
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            by_string.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            by_string.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            by_string.append(node.value)
    for root in by_string:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def test_scan_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom typing import Optional, Sequence\n"
        "from m import Exported\n__all__ = ['Exported']\n"
        "def f(x: Optional[int]) -> 'Sequence[int]':\n    return os.path.join('json', x)\n"
    )
    assert unused_imports(source) == [("json", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).with_suffix("").as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_bindings(tree: ast.Module) -> dict[str, int]:
    """The ``_``-prefixed (not dunder) names a module binds at its top level, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names_in = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            bound = [n.id for n in names_in if isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names.setdefault(name, node.lineno)
    return names


def dead_privates(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(source, name, line) of each private top-level name that no source reads."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    read = set().union(*map(_referenced, trees.values()))
    return sorted(
        (label, name, line)
        for label, tree in trees.items()
        for name, line in _private_bindings(tree).items()
        if name not in read
    )


def test_dead_private_scan():
    sources = {
        "a": (
            "_USED = 1\n_STORED = 2\n_STORED = 3\n__version__ = '1'\nx: '_Shape'\n"
            "def _helper():\n    return _USED\n"
            "def _dead():\n    _dead_local = 1\n"
            "class _Shape:\n    pass\n"
        ),
        "b": "_helper()\n",
    }
    assert dead_privates(sources) == [("a", "_STORED", 2), ("a", "_dead", 8)]


def test_every_private_name_in_the_package_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_privates(sources) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_public_names_are_bound(path):
    module = importlib.import_module("pianoeval" if path.stem == "__init__" else f"pianoeval.{path.stem}")
    names = list(getattr(module, "__all__", ()))
    if path.stem == "__init__":
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names += [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert [name for name in names if not hasattr(module, name)] == []


def private_imports(source: str) -> list[tuple[str, int]]:
    """The ``_``-prefixed (not dunder) names a module takes from a package module by ``from`` import."""
    tree = ast.parse(source)
    froms = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and (n.level or n.module.split(".")[0] == "pianoeval")
    ]
    return sorted(
        (a.name, n.lineno) for n in froms for a in n.names if a.name.startswith("_") and not a.name.startswith("__")
    )


def test_private_import_scan():
    source = (
        "from .audio import _peak, read_wav\nfrom pianoeval.midi import _read_varint\n"
        "from os.path import _joinrealpath\nfrom . import __version__\nfrom pianoevalx import _y\n"
    )
    assert private_imports(source) == [("_peak", 1), ("_read_varint", 2)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_imports_across_package_modules(path):
    # a private name stays inside its module; tests may still import one
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_config_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    froms = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [n.module for n in froms if n.level or n.module.startswith("pianoeval")] == []


def _readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def _package_modules() -> dict[str, types.ModuleType]:
    """Every module of the package, imported, by name."""
    stems = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    return {stem: importlib.import_module(f"pianoeval.{stem}") for stem in stems}


def _resolves(dotted: str) -> bool:
    target = importlib.import_module("pianoeval")
    for part in dotted.split(".")[1:]:
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_readme_imports_are_bound():
    package = importlib.import_module("pianoeval")
    names = [
        alias.name
        for block in _readme_python_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "pianoeval"
        for alias in node.names
    ]
    assert "RunConfig" in names
    assert [name for name in names if not hasattr(package, name)] == []
    # the root re-exports what the README imports from it, and nothing more
    bound = {name for name, value in vars(package).items() if not (name.startswith("__") or inspect.ismodule(value))}
    assert bound == set(names)
    _package_modules()  # binds every module on the package, as ``import pianoeval.<module>`` would
    dotted = re.findall(r"\bpianoeval(?:\.[A-Za-z_]\w*)+", (ROOT / "README.md").read_text(encoding="utf-8"))
    assert "pianoeval.config.MIN_STEP" in dotted
    assert [reference for reference in dotted if not _resolves(reference)] == []


def stale_imports(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each name a ``from pianoeval[.<module>] import`` takes that is not bound there."""
    _package_modules()  # binds every module on the package, so ``from pianoeval import midi`` resolves
    stale = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "pianoeval":
            try:
                module = importlib.import_module(node.module)
            except ModuleNotFoundError:
                stale.append((node.lineno, node.module))
                continue
            stale += [(node.lineno, f"{node.module}.{a.name}") for a in node.names if not hasattr(module, a.name)]
    return sorted(stale)


def test_stale_import_scan():
    source = (
        "from pianoeval import midi, RunConfig, gone\nfrom pianoeval.ir_metrics import match_notes, _dropped\n"
        "from pianoeval.nowhere import x\nfrom pianoevalx import y\nfrom . import z\n"
        "def f():\n    from pianoeval.midi import Note, _old\n"
    )
    assert stale_imports(source) == [
        (1, "pianoeval.gone"), (2, "pianoeval.ir_metrics._dropped"), (3, "pianoeval.nowhere"),
        (7, "pianoeval.midi._old"),
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for d in ("tests", "perfbench") for p in (ROOT / d).rglob("*.py")),
    ids=lambda p: p.relative_to(ROOT).with_suffix("").as_posix(),
)
def test_names_imported_from_the_package_are_bound(path):
    assert stale_imports(path.read_text(encoding="utf-8")) == []


def test_no_name_is_exported_by_two_modules():
    homes = {}
    for stem, module in _package_modules().items():
        for name in getattr(module, "__all__", ()):
            homes.setdefault(name, []).append(stem)
    assert {name: stems for name, stems in homes.items() if len(stems) > 1} == {}


def test_readme_note_example_prints_its_comments():
    block = next(b for b in _readme_python_blocks() if "Performance.from_notes" in b)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    expected = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected[0] == "0.5"  # the recall of one matched note out of two
    assert printed.getvalue().splitlines() == expected


# scipy subpackages that cost most of a second and tens of MB to import, and that the package does not need
HEAVY_SCIPY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")


def test_cli_import_leaves_heavy_scipy_out():
    code = f"import sys, pianoeval.cli; print(*[m for m in {HEAVY_SCIPY!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def deferred_imports(source: str) -> list[int]:
    """Lines of the ``import`` statements inside a function or method."""
    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(
        {n.lineno for f in functions for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))}
    )


def test_deferred_import_scan():
    source = (
        "import math\n"
        "class A:\n    def f(self):\n        from os import path\n        return path\n"
        "def g():\n    def h():\n        import json\n    return math.pi\n"
    )
    assert deferred_imports(source) == [4, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_deferred_imports_in_package(path):
    assert deferred_imports(path.read_text(encoding="utf-8")) == []


def tiny_floats(source: str, allowed: tuple[str, ...] = ()) -> list[tuple[int, float]]:
    """(line, value) of each float literal in ``(0, 1e-9]``, a negated one
    included, that is not the value of a top-level assignment to an ``allowed`` name."""
    tree = ast.parse(source)
    defined = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and ast.unparse(node.targets[0]) in allowed
    }
    return sorted(
        (n.lineno, n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, float) and 0 < n.value <= 1e-9 and id(n) not in defined
    )


def test_tiny_float_scan():
    source = (
        "TIME_SLACK = 1e-9\nOTHER = 1e-9\nSPREAD = (1e-9)\n"
        "def f(t, TIME_SLACK=1e-9):\n    return t < -1e-12 or t > 0.5 or t == 0.0 or t > 2e-9\n"
    )
    assert tiny_floats(source, ("TIME_SLACK",)) == [(2, 1e-9), (3, 1e-9), (4, 1e-9), (5, 1e-12)]
    assert tiny_floats(source) == [(1, 1e-9), (2, 1e-9), (3, 1e-9), (4, 1e-9), (5, 1e-12)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_the_only_tiny_floats_in_the_package_are_its_two_constants(path):
    allowed = ("CONSTANT_SPREAD", "TIME_SLACK") if path.stem == "series" else ()
    assert tiny_floats(path.read_text(encoding="utf-8"), allowed) == []


def rounding_calls(source: str) -> list[str]:
    """The source of each call to a function named ``floor`` or ``ceil``, as in ``math.floor(x)`` or ``np.ceil(x)``."""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    names = [c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", None) for c in calls]
    return sorted(ast.unparse(c) for c, name in zip(calls, names) if name in ("floor", "ceil"))


def names_in(source: str) -> set[str]:
    """Every name a module reads, binds, imports or takes as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    imported = {a.asname or a.name for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    return imported | {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def test_grid_placement_scans():
    source = (
        "import math\nimport numpy as np\nfrom .series import TIME_SLACK as slack\n"
        "k = np.floor(t / h) + math.ceil(x) + floor(y) + series.TIME_SLACK\nz = np.floor_divide(t, h)\n"
    )
    assert rounding_calls(source) == ["floor(y)", "math.ceil(x)", "np.floor(t / h)"]
    assert {"TIME_SLACK", "slack", "floor_divide"} <= names_in(source)
    assert "TIME_SLACK" not in names_in("'TIME_SLACK'\n# TIME_SLACK\n")


# a size, not a placement: the samples of a synthetic reverb
_ROUNDING_ALLOWED = {"audio": ["math.floor(checked_rt60(rt60) * sample_rate)"]}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_series_places_a_time_on_a_grid(path):
    source = path.read_text(encoding="utf-8")
    if path.stem != "series":
        assert rounding_calls(source) == _ROUNDING_ALLOWED.get(path.stem, [])
    if path.stem in ("tension", "ir_metrics"):
        assert "TIME_SLACK" not in names_in(source)


@pytest.mark.parametrize("stem", ["musical", "tension", "ir_metrics"])
def test_grid_sweeps_expand_notes_only_in_bounded_passes(stem):
    names = names_in((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    assert "expand_in_passes" in names and "expand_ranges" not in names


def readers(source: str, name: str) -> list[str]:
    """The top-level functions of a module that read ``name`` as a name or an attribute, and
    ``<module>`` if anything else does."""
    found = set()
    for node in ast.parse(source).body:
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load):
                found.add(scope)
            elif isinstance(n, ast.Attribute) and n.attr == name:
                found.add(scope)
    return sorted(found)


def test_reader_scan():
    source = (
        "SLACK = 1e-9\nLIMIT = SLACK * 2\n"
        "def f(t):\n    'SLACK'\n    return t + SLACK\n"
        "def g(SLACK):\n    return 0\n"
        "def h():\n    SLACK = 2\n"
        "def i(x):\n    return np.SLACK(x)\n"
    )
    assert readers(source, "SLACK") == ["<module>", "f", "i"]
    assert readers(source.replace("LIMIT = SLACK * 2\n", ""), "SLACK") == ["f", "i"]


def test_only_the_momentum_weights_expand_notes_in_tension():
    source = (PACKAGE / "tension.py").read_text(encoding="utf-8")
    assert readers(source, "expand_in_passes") == ["_pc_weights"]
    assert "cloud_diameter_series" not in readers(source, "_pc_weights")


@pytest.mark.parametrize("stem", ["musical", "tension"])
def test_no_grid_sweep_searches(stem):
    assert "searchsorted" not in names_in((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def test_series_applies_the_time_slack_only_where_it_places_or_holds_a_time():
    source = (PACKAGE / "series.py").read_text(encoding="utf-8")
    assert readers(source, "TIME_SLACK") == ["grid_positions"]
    assert readers(source, "searchsorted") == []


def arange_products(source: str) -> list[str]:
    """The source of each product with a call to a function named ``arange`` on either side, as in
    ``np.arange(n) * step``."""

    def is_arange(node) -> bool:
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and (getattr(func, "attr", None) or getattr(func, "id", None)) == "arange"

    products = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)]
    return sorted(ast.unparse(n) for n in products if is_arange(n.left) or is_arange(n.right))


def test_arange_product_scan():
    source = (
        "t = t0 + np.arange(n) * step\nu = step * arange(n)\nv = np.arange(n) / rate\n"
        "w = np.flatnonzero(keep) * step\nx = np.arange(n) < limit\n"
    )
    assert arange_products(source) == ["np.arange(n) * step", "step * arange(n)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_array_of_grid_times_is_built(path):
    assert arange_products(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_calls_a_linear_algebra_solver(path):
    assert "linalg" not in names_in(path.read_text(encoding="utf-8"))
