"""Static checks on the package source: no unused imports, the ledger rules.

No linter ships with the test toolchain, so this walks the syntax tree with
the standard-library ``ast`` module.  Package ``__init__`` modules are
skipped by the import check: their imports are the public re-exports.  Every
release takes the caller's ledger, so no ``budget`` parameter has a default,
and the release noise has one calibration, so no parameter rescales it.
Only ``dp`` debits a ledger or draws release noise, so a release is drawn
and debited one way; ``noise_gof`` may call the samplers, because it audits
them.  No module but ``ustat`` uses ``ustat``'s private names.  No function,
parameter or dataclass field is named ``fault_*``: tests inject faults by
patching, not through a library option.  Importing
the package loads a fixed set of scipy subpackages.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "privustat"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.rglob("*.py"))
RESCALING_PARAMETERS = {"strict_scale", "scale_factor"}


def used_names(tree: ast.AST) -> set:
    """Every bare name the code reads, including names inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"line {node.lineno}: {name}" for name in bound if name not in used]
    return unused


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom math import inf, log\n"
        "from typing import Optional\n"
        "def f(x: 'Optional[int]') -> float:\n    return log(x)\n"
    )
    assert unused_imports(source) == ["line 2: np", "line 3: os", "line 4: inf"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def ledger_rule_violations(source: str) -> list[str]:
    """A ``budget`` parameter with a default, or a noise-rescaling parameter
    (a dataclass field counts: it is a parameter of the generated __init__),
    in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.target.id}")
                      for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and item.target.id in RESCALING_PARAMETERS]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
        defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, f"{name}({arg.arg}=...)")
                  for arg in defaulted if arg.arg == "budget"]
        found += [(node.lineno, f"{name}({arg.arg})")
                  for arg in positional + a.kwonlyargs if arg.arg in RESCALING_PARAMETERS]
    return [f"line {line}: {what}" for line, what in sorted(found, key=lambda f: f[0])]


def test_checker_finds_ledger_rule_violations():
    source = (
        "def ok(x, seed, budget):\n    return x\n"
        "def optional(x, seed, budget=None):\n    return x\n"
        "def keyword(x, *, budget=None, strict_scale=False):\n    return x\n"
        "def release(value, ss, scale_factor):\n    return value\n"
        "f = lambda x, budget=None: x\n"
        "class Params:\n    eps: float\n    strict_scale: bool = False\n"
    )
    assert ledger_rule_violations(source) == [
        "line 3: optional(budget=...)",
        "line 5: keyword(budget=...)",
        "line 5: keyword(strict_scale)",
        "line 7: release(scale_factor)",
        "line 9: <lambda>(budget=...)",
        "line 12: Params.strict_scale",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_ledger_is_required_and_release_scale_is_fixed(path):
    assert ledger_rule_violations(path.read_text()) == []


def fault_knobs(source: str) -> list[str]:
    """Every function, parameter or dataclass field named ``fault_*``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.target.id}")
                      for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name) and item.target.id.startswith("fault_")]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        a = node.args
        arguments = a.posonlyargs + a.args + a.kwonlyargs + [arg for arg in (a.vararg, a.kwarg) if arg]
        found += [(node.lineno, name)] if name.startswith("fault_") else []
        found += [(node.lineno, f"{name}({arg.arg})") for arg in arguments if arg.arg.startswith("fault_")]
    return [f"line {line}: {what}" for line, what in sorted(found, key=lambda f: f[0])]


def test_checker_finds_fault_knobs():
    source = (
        "def audit(n, eps, fault_scale=1.0):\n    return n\n"
        "def fault_inject(x):\n    return x\n"
        "def run(*, fault_seed):\n    return fault_seed\n"
        "class Report:\n    ok: bool\n    fault_mode: str = 'none'\n"
        "def faulty(x, default_scale=1.0):\n    return x\n"
    )
    assert fault_knobs(source) == [
        "line 1: audit(fault_scale)",
        "line 3: fault_inject",
        "line 5: run(fault_seed)",
        "line 9: Report.fault_mode",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_fault_injection_knobs(path):
    # faults are injected by patching in the tests, never through a library
    # option that a caller could leave set
    assert fault_knobs(path.read_text()) == []


def private_ustat_names(source: str) -> list[str]:
    """Every ``_``-prefixed name taken from ``ustat``: imported from it, or
    read as an attribute of a name ``ustat``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ustat":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "ustat" and node.attr.startswith("_")):
            found.append((node.lineno, node.attr))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_finds_private_ustat_names():
    source = (
        "from ..ustat import _BLOCK_ROWS, Dataset\n"
        "from privustat.ustat import _prefix_runs\n"
        "from .dp import _RATIO_BLOCK\n"
        "from .. import ustat\n"
        "rows = ustat._BLOCK_ROWS + ustat.DEFAULT_ENUMERATION_CAP\n"
    )
    assert private_ustat_names(source) == [
        "line 1: _BLOCK_ROWS", "line 2: _prefix_runs", "line 5: _BLOCK_ROWS",
    ]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "ustat.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_only_ustat_uses_its_private_names(path):
    # the engine's block size and helpers may change without notice; a
    # module that needs one needs a public entry point instead
    assert private_ustat_names(path.read_text()) == []


# the bulk samplers, and the one-draw-per-generator samplers of the stacked releases
SAMPLERS = {"laplace_draws", "quartic_draws", "_laplace_each", "_quartic_each"}
SAMPLER_AUDIT = ("harness/audits.py", "noise_gof")


def debits_and_draws(source: str) -> list[tuple[int, str, str]]:
    """(line, enclosing top-level definition, callee) of every call of
    ``spend`` or of a release sampler, by plain name or as an attribute."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                if callee == "spend" or callee in SAMPLERS:
                    found.append((node.lineno, owner, callee))
    return sorted(found)


def test_checker_finds_debits_and_draws():
    source = (
        "from .dp import laplace_draws\n"
        "def release(x, budget, rng):\n"
        "    budget.spend('x', 1.0)\n"
        "    return x + laplace_draws(1.0, 1, rng)[0]\n"
        "class Audit:\n    def run(self, rng):\n        return dp.quartic_draws(10, rng)\n"
        "spend('top', 0.5)\n"
    )
    assert debits_and_draws(source) == [
        (3, "release", "spend"),
        (4, "release", "laplace_draws"),
        (7, "Audit", "quartic_draws"),
        (8, "<module>", "spend"),
    ]


def test_only_dp_debits_the_ledger_and_draws_release_noise():
    found = []
    for path in ALL_MODULES:
        module = str(path.relative_to(SRC))
        if module == "dp.py":
            continue
        for line, owner, callee in debits_and_draws(path.read_text()):
            if callee in SAMPLERS and (module, owner) == SAMPLER_AUDIT:
                continue
            found.append(f"{module} line {line}: {callee} in {owner}")
    assert found == []


SCIPY_SUBPACKAGES = {"scipy.sparse"}


def test_import_loads_only_the_listed_scipy_subpackages():
    """Each scipy subpackage costs every process import time and RSS, and
    some pull in many others (``scipy.integrate`` loads optimize, special,
    linalg, spatial, fft and constants), so adding one is a decision this
    list makes visible."""
    probe = (
        "import json, sys\n"
        "import privustat, privustat.harness.cli, privustat.harness.audits\n"
        "import privustat.harness.experiments\n"
        "print(json.dumps(sorted(m for m, mod in sys.modules.items()\n"
        "    if m.count('.') == 1 and m.startswith('scipy.')\n"
        "    and not m.split('.')[1].startswith('_') and hasattr(mod, '__path__'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    assert set(json.loads(out)) == SCIPY_SUBPACKAGES
