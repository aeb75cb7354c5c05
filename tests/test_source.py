"""Static checks on the package source: no unused imports, the ledger rules.

No linter ships with the test toolchain, so this walks the syntax tree with
the standard-library ``ast`` module.  Package ``__init__`` modules are
skipped by the import check: their imports are the public re-exports.  Every
release takes the caller's ledger, so no ``budget`` parameter has a default,
and the release noise has one calibration, so no parameter rescales it.
Only ``dp`` debits a ledger or calls a noise law's per-generator sampler,
so a release is drawn and debited one way; outside ``dp`` only
``noise_gof`` calls a law's bulk sampler, because it audits it.  Only
``hajek.release_rows`` and the smoothness audit call the Hájek engine, and
only ``release_rows`` releases with the quartic law, so no second Hájek
path grows beside the stacked one.  Only ``dp`` reads a law's ``factor``:
the release returns the scale it drew at, so no caller holds a copy of the
calibration.  No module but ``ustat`` uses
``ustat``'s private names, or builds a ``Kernel``.  No module but
``errors`` calls ``warnings.warn``, so every warning is attributed by
``warn_precondition``'s one rule.  No function,
parameter or dataclass field is named ``fault_*``: tests inject faults by
patching, not through a library option.  Importing
the package loads no scipy module.
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
        "from privustat.ustat import _lex_runs\n"
        "from .dp import _RATIO_BLOCK\n"
        "from .. import ustat\n"
        "rows = ustat._BLOCK_ROWS + ustat.DEFAULT_ENUMERATION_CAP\n"
    )
    assert private_ustat_names(source) == [
        "line 1: _BLOCK_ROWS", "line 2: _lex_runs", "line 5: _BLOCK_ROWS",
    ]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "ustat.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_only_ustat_uses_its_private_names(path):
    # the engine's block size and helpers may change without notice; a
    # module that needs one needs a public entry point instead
    assert private_ustat_names(path.read_text()) == []


def kernel_constructions(source: str) -> list[str]:
    """Every call of ``Kernel``, by plain name or as an attribute."""
    return [f"line {line}: {callee} in {owner}" for line, owner, callee in calls_of(source, {"Kernel"})]


def test_checker_finds_kernel_constructions():
    source = (
        "from .ustat import Kernel, kernel_values\n"
        "def reweighted_mean(values, family, weights):\n"
        "    smallest = Kernel(family.k, lambda t: t.min(axis=1), None, name='min')\n"
        "    return kernel_values(smallest, weights, family)\n"
        "PAIR = ustat.Kernel(2, max, None)\n"
        "class Kernels:\n    def make(self):\n        return self.kernel(1)\n"
    )
    assert kernel_constructions(source) == [
        "line 3: Kernel in reweighted_mean", "line 5: Kernel in <module>",
    ]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "ustat.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_only_ustat_builds_kernels(path):
    # a kernel built to drive the engine over something other than the data
    # (weights, indices) is a second pass over the family; the engine's own
    # paths should do that work instead
    assert kernel_constructions(path.read_text()) == []


def warning_calls(source: str) -> list[str]:
    """Every call of ``warn``, by plain name or as an attribute (``calls_of``)."""
    return [f"line {line}: warn in {owner}" for line, owner, _ in calls_of(source, {"warn"})]


def test_checker_finds_warning_calls():
    source = (
        "import warnings\n"
        "from warnings import warn\n"
        "def check(x):\n"
        "    warnings.warn('x', UserWarning, stacklevel=2)\n"
        "    warn_precondition('y')\n"
        "    warnings.filterwarnings('ignore')\n"
        "warn('z')\n"
    )
    assert warning_calls(source) == ["line 4: warn in check", "line 7: warn in <module>"]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "errors.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_only_errors_issues_warnings(path):
    # a hand-counted stacklevel points at the wrong line as soon as a call
    # moves one module deeper; warn_precondition finds the caller's frame
    assert warning_calls(path.read_text()) == []


# a noise law's bulk sampler, called through its ``dp.NoiseLaw`` record or by
# its name in dp, and its one-draw-per-generator sampler, likewise: outside
# dp only noise_gof calls a bulk sampler, because it audits it, and nothing
# calls a per-generator one, which only ``dp.releases`` adds to a value
BULK_SAMPLERS = {"draws", "laplace_draws", "quartic_draws"}
EACH_SAMPLERS = {"each", "_laplace_each", "_quartic_each"}
SAMPLER_AUDIT = ("harness/audits.py", "noise_gof")


def calls(source: str):
    """(enclosing top-level definition, call node, callee name) of every call."""
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield owner, node, getattr(node.func, "attr", getattr(node.func, "id", None))


def calls_of(source: str, callees) -> list[tuple[int, str, str]]:
    """(line, enclosing top-level definition, callee) of every call of a
    name in ``callees``, by plain name or as an attribute."""
    return sorted((node.lineno, owner, callee) for owner, node, callee in calls(source) if callee in callees)


def debits_and_draws(source: str) -> list[tuple[int, str, str]]:
    """Every call of ``spend`` or of a noise sampler (``calls_of``)."""
    return calls_of(source, {"spend"} | BULK_SAMPLERS | EACH_SAMPLERS)


def test_checker_finds_debits_and_draws():
    source = (
        "from .dp import LAWS, laplace_draws\n"
        "def release(x, budget, rng):\n"
        "    budget.spend('x', 1.0)\n"
        "    return x + laplace_draws(1, rng)[0] + LAWS['laplace'].each([1.0], [rng])[0]\n"
        "class Audit:\n    def run(self, rng):\n        return dp.QUARTIC.draws(10, rng)\n"
        "spend('top', 0.5)\n"
    )
    assert debits_and_draws(source) == [
        (3, "release", "spend"),
        (4, "release", "each"),
        (4, "release", "laplace_draws"),
        (7, "Audit", "draws"),
        (8, "<module>", "spend"),
    ]


def test_only_dp_debits_the_ledger_and_draws_release_noise():
    found = []
    for path in ALL_MODULES:
        module = str(path.relative_to(SRC))
        if module == "dp.py":
            continue
        for line, owner, callee in debits_and_draws(path.read_text()):
            if callee in BULK_SAMPLERS and (module, owner) == SAMPLER_AUDIT:
                continue
            found.append(f"{module} line {line}: {callee} in {owner}")
    assert found == []


# the Hájek engine, with the only (module, top-level definition) pairs that
# may call it: every release of the estimator goes through ``release_rows``,
# and the smoothness audit runs the engine itself
HAJEK_ENGINE_CALLERS = {
    "hajek_rows": {("hajek.py", "release_rows"), ("harness/audits.py", "smoothness_audit")},
}


def second_hajek_paths(module: str, source: str) -> list[str]:
    """Every call of a Hájek engine function from outside its callers."""
    return [
        f"{module} line {line}: {callee} in {owner}"
        for line, owner, callee in calls_of(source, HAJEK_ENGINE_CALLERS)
        if (module, owner) not in HAJEK_ENGINE_CALLERS[callee]
    ]


def test_checker_finds_second_hajek_paths():
    source = (
        "def release_rows(rows, params, seeds, budgets):\n"
        "    return hajek_rows(rows, params)\n"
        "def hajek_state(summary, params):\n"
        "    return hajek.hajek_rows(summary.rows(), params).row(0)\n"
    )
    assert second_hajek_paths("hajek.py", source) == ["hajek.py line 4: hajek_rows in hajek_state"]
    assert second_hajek_paths("harness/audits.py", source) == [
        "harness/audits.py line 2: hajek_rows in release_rows",
        "harness/audits.py line 4: hajek_rows in hajek_state",
    ]


def test_one_hajek_path():
    # a one-row copy of the engine would drift from the stacked one that
    # every release and the audit use
    found = []
    for path in ALL_MODULES:
        found += second_hajek_paths(str(path.relative_to(SRC)), path.read_text())
    assert found == []


# the only (module, top-level definition) that releases with the quartic law
QUARTIC_RELEASER = ("hajek.py", "release_rows")
LAPLACE_RECORD = {"LAPLACE", "dp.LAPLACE"}


def quartic_releases(module: str, source: str) -> list[str]:
    """Every call of ``releases`` from outside ``QUARTIC_RELEASER`` whose law
    is not plainly the Laplace record: one that may draw quartic noise."""
    found = []
    for owner, node, callee in calls(source):
        if callee != "releases" or (module, owner) == QUARTIC_RELEASER:
            continue
        law = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "law"), None)
        law = "?" if law is None else ast.unparse(law)
        if law not in LAPLACE_RECORD:
            found.append((node.lineno, f"{module} line {node.lineno}: releases({law}) in {owner}"))
    return [what for _, what in sorted(found)]


def test_checker_finds_quartic_releases():
    source = (
        "from .dp import LAPLACE, QUARTIC, releases\n"
        "def release_rows(rows, eps, seeds, budgets):\n"
        "    return releases(QUARTIC, rows.values, rows.bounds, eps, budgets, seeds, 'hajek')\n"
        "def proxy(values, eps, seeds, budgets):\n"
        "    return dp.releases(LAPLACE, values, [1.0], eps, budgets, seeds, 'proxy')\n"
        "class Release:\n"
        "    def run(self, law):\n"
        "        return dp.releases(dp.LAWS[law], self.values)\n"
        "def keyword(values):\n"
        "    return releases(law=dp.QUARTIC, values=values)\n"
    )
    assert quartic_releases("hajek.py", source) == [
        "hajek.py line 8: releases(dp.LAWS[law]) in Release",
        "hajek.py line 10: releases(dp.QUARTIC) in keyword",
    ]
    assert quartic_releases("applications.py", source) == [
        "applications.py line 3: releases(QUARTIC) in release_rows",
        "applications.py line 8: releases(dp.LAWS[law]) in Release",
        "applications.py line 10: releases(dp.QUARTIC) in keyword",
    ]


def test_only_release_rows_releases_with_the_quartic_law():
    # the quartic law's scale is calibrated to the Hájek engine's smooth
    # bound; any other caller's sensitivity is not one
    found = []
    for path in ALL_MODULES:
        module = str(path.relative_to(SRC))
        if module != "dp.py":
            found += quartic_releases(module, path.read_text())
    assert found == []


def release_factor_reads(source: str) -> list[str]:
    """Every read of a noise law's ``factor``, by attribute, in line order."""
    found = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr == "factor"]
    return [f"line {line}" for line in sorted(found)]


def test_checker_finds_release_factor_reads():
    source = (
        "from .dp import QUARTIC, LAWS\n"
        "def scale(bound, eps):\n"
        "    return QUARTIC.factor * bound / eps\n"
        "def other(bound, eps, law):\n"
        "    return dp.LAWS[law].factor * bound / eps\n"
        "factor = 10.0  # a name, not a law's field\n"
    )
    assert release_factor_reads(source) == ["line 3", "line 5"]


def test_only_dp_reads_the_release_factor():
    # a module that multiplies by a law's factor reports a scale the drawn
    # noise does not have once the factor changes
    found = []
    for path in ALL_MODULES:
        module = str(path.relative_to(SRC))
        if module != "dp.py":
            found += [f"{module} {where}" for where in release_factor_reads(path.read_text())]
    assert found == []


def test_import_loads_no_scipy_module():
    """The library needs only NumPy; scipy is a test dependency.  Any scipy
    module would cost every process import time and RSS, so none may load."""
    probe = (
        "import json, sys\n"
        "import privustat, privustat.harness.cli, privustat.harness.audits\n"
        "import privustat.harness.experiments\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    assert json.loads(out) == []
