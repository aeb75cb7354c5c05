"""Static checks on the package source: no unused imports, the ledger rules.

No linter ships with the test toolchain, so this walks the syntax tree with
the standard-library ``ast`` module.  Package ``__init__`` modules are
skipped by the import check: their imports are the public re-exports.  Every
release takes the caller's ledger, so no ``budget`` parameter has a default,
and the release noise has one calibration, so no parameter rescales it.
Only ``dp`` debits a ledger or draws release noise, so a release is drawn
and debited one way; outside ``dp`` only ``noise_gof`` calls a law's
sampler, because it audits it.  No module calls ``spawn``: a boosted
dataset's chunks share one generator, and each release draws all of their
noise from it in one sampler call.  No module but ``rng`` builds a
generator, and no stacked entry point (one that takes a ``budgets`` list)
or loop calls ``as_generator``: a stack's rows get their generators from
``rng.row_generators`` alone.  Only
``hajek.release_rows`` and the smoothness audit call the Hájek engine, and
only ``release_rows`` releases with the quartic law, so no second Hájek
path grows beside the stacked one.  Outside ``hajek`` a summary comes from
``summary_rows`` alone, and only the collision application builds count
rows from its own counts.  Every ``SummaryRows`` built in the
package names its ``multiplicity``, so a letter-level stack states how
many indices each column stands for, and ``hajek`` calls no ``repeat``, so
no step of the Hájek state expands a column to its indices.  No module
calls a bare ``np.unique``, which hashes integers far slower than a sort
dedupes them.  Outside
``ustat`` only ``coinpress`` asks for a kernel value per subset, which
clip-and-release clips in place; the Hájek paths read the pass's means and
projections.  Only ``dp`` reads
a law's ``factor``: the release returns the scale it drew at, so no caller
holds a copy of the calibration.  No module but ``ustat`` uses
``ustat``'s private names, or builds a ``Kernel``, and only
``equality_kernel`` marks one ``equality``.  No module but
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


# the only (module, top-level definition) that marks a kernel ``equality``:
# the mark sends the releases to the value counts, which hold for
# 1(x_1 = ... = x_k) alone
EQUALITY_MARKER = ("ustat.py", "equality_kernel")


def equality_marks(module: str, source: str) -> list[str]:
    """Every call that passes an ``equality`` keyword from outside ``EQUALITY_MARKER``."""
    return [
        f"{module} line {node.lineno}: {callee} in {owner}"
        for owner, node, callee in calls(source)
        if (module, owner) != EQUALITY_MARKER and any(kw.arg == "equality" for kw in node.keywords)
    ]


def test_checker_finds_equality_marks():
    source = (
        "def equality_kernel(k):\n"
        "    return Kernel(k, fn, Bounded(1.0), equality=True)\n"
        "def min_kernel(k):\n"
        "    return dataclasses.replace(equality_kernel(k), fn=min, equality=True)\n"
    )
    assert equality_marks("ustat.py", source) == ["ustat.py line 4: replace in min_kernel"]
    assert equality_marks("hajek.py", source) == [
        "hajek.py line 2: Kernel in equality_kernel", "hajek.py line 4: replace in min_kernel",
    ]


def test_only_equality_kernel_marks_a_kernel_equality():
    # a kernel marked by mistake would release the equality kernel's
    # statistic in place of its own, without a call of its ``fn``
    found = []
    for path in ALL_MODULES:
        found += equality_marks(str(path.relative_to(SRC)), path.read_text())
    assert found == []


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


# a noise law's sampler, called through its ``dp.NoiseLaw`` record or by its
# name in dp: outside dp only noise_gof calls one, because it audits it
BULK_SAMPLERS = {"draws", "laplace_draws", "quartic_draws"}
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
    return calls_of(source, {"spend"} | BULK_SAMPLERS)


def test_checker_finds_debits_and_draws():
    source = (
        "from .dp import LAWS, laplace_draws\n"
        "def release(x, budget, rng):\n"
        "    budget.spend('x', 1.0)\n"
        "    return x + laplace_draws(1, rng)[0] + LAWS['laplace'].draws(1, rng)[0]\n"
        "class Audit:\n    def run(self, rng):\n        return dp.QUARTIC.draws(10, rng)\n"
        "spend('top', 0.5)\n"
    )
    assert debits_and_draws(source) == [
        (3, "release", "spend"),
        (4, "release", "draws"),
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


def test_checker_finds_spawn_calls():
    # a method call or a bare name; the SeedSequence keyword spawn_key is no call
    source = (
        "import numpy as np\n"
        "def chunks(seed, q):\n"
        "    return as_generator(seed).spawn(q)\n"
        "def stream(seed, *key):\n"
        "    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))\n"
        "class Plan:\n    def seeds(self, ss):\n        return [spawn(ss), ss.spawn(2)]\n"
    )
    assert calls_of(source, {"spawn"}) == [(3, "chunks", "spawn"), (8, "Plan", "spawn"), (8, "Plan", "spawn")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_spawns_generators(path):
    # the q chunks of a boosted estimate share one generator; spawning one
    # per chunk cost a SeedSequence per chunk and drew each chunk's noise
    # apart from the law's one sampler call
    assert calls_of(path.read_text(), {"spawn"}) == []


# what builds a generator from a seed, outside ``rng.as_generator``
GENERATOR_BUILDERS = {"default_rng", "SeedSequence"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def per_row_seedings(source: str) -> list[str]:
    """Every way a module could turn a seed into per-row generators itself:
    a call of ``default_rng`` or ``SeedSequence``, and a call of
    ``as_generator`` inside a loop or comprehension or inside a stacked
    entry point (a function, or one nested in a function, with a
    ``budgets`` parameter: one ledger per row), with the enclosing
    top-level definition, in line order."""
    found = []

    def visit(node, owner, stacked, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            stacked = stacked or "budgets" in {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
        looped = looped or isinstance(node, LOOPS)
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            if callee in GENERATOR_BUILDERS or (callee == "as_generator" and (stacked or looped)):
                found.append((node.lineno, f"{callee} in {owner}"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, stacked, looped)

    for top in ast.parse(source).body:
        visit(top, getattr(top, "name", "<module>"), False, False)
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_finds_per_row_seedings():
    source = (
        "import numpy as np\n"
        "def sample(n, seed):\n"
        "    return as_generator(seed).random(n)\n"
        "def estimates(chunks, seed, budgets):\n"
        "    rng = as_generator(seed)\n"
        "    def run(rows):\n"
        "        return as_generator(seed)\n"
        "    return [np.random.default_rng(s) for s in seed]\n"
        "def trials(seeds):\n"
        "    return [as_generator(s) for s in seeds]\n"
        "class Stack:\n"
        "    def rows(self, seed, q):\n"
        "        for _ in range(q):\n"
        "            self.rngs.append(as_generator(seed))\n"
        "STREAM = np.random.SeedSequence(1, spawn_key=(0,))\n"
    )
    assert per_row_seedings(source) == [
        "line 5: as_generator in estimates",
        "line 7: as_generator in estimates",
        "line 8: default_rng in estimates",
        "line 10: as_generator in trials",
        "line 14: as_generator in Stack",
        "line 15: SeedSequence in <module>",
    ]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "rng.py"], ids=lambda p: str(p.relative_to(SRC))
)
def test_only_rng_turns_a_seed_into_per_row_generators(path):
    # every stacked entry point resolves its one seed or its per-row
    # generators through rng.row_generators, so no second seeding path
    # can give two rows one stream or one trial two
    assert per_row_seedings(path.read_text()) == []


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


def summary_rows_without_multiplicity(source: str) -> list[int]:
    """The line of every ``SummaryRows`` call that does not name its
    ``multiplicity`` keyword."""
    return [
        node.lineno for _, node, callee in calls(source)
        if callee == "SummaryRows" and "multiplicity" not in {kw.arg for kw in node.keywords}
    ]


def test_checker_finds_summary_rows_without_multiplicity():
    # by keyword, through a module, positionally and by ** unpacking
    source = (
        "def letters(a, p, counts, n):\n"
        "    return SummaryRows(n=n, k=2, a_n=a, projections=p, multiplicity=counts)\n"
        "def indices(a, p, n):\n"
        "    return hajek.SummaryRows(n=n, k=2, a_n=a, projections=p)\n"
        "class Stack:\n    def rows(self, counts):\n"
        "        return [SummaryRows(2, 2, self.a, self.p, counts), SummaryRows(**self.fields)]\n"
    )
    assert summary_rows_without_multiplicity(source) == [4, 7, 7]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_summary_rows_names_its_multiplicity(path):
    # a letter-level stack that left its multiplicities out would count each
    # letter once toward L, which gives a wrong L and so a wrong smooth bound
    assert summary_rows_without_multiplicity(path.read_text()) == []


def repeat_calls(source: str) -> list[tuple[int, str, str]]:
    """Every call of ``repeat``, NumPy's or an array's (``calls_of``)."""
    return calls_of(source, {"repeat"})


def test_checker_finds_repeat_calls():
    source = (
        "import numpy as np\n"
        "def spread(over, counts, devs):\n"
        "    return devs.reshape(-1)[np.repeat(over, counts)]\n"
        "class Rows:\n    def expand(self, counts):\n        return self.columns.repeat(counts)\n"
    )
    assert repeat_calls(source) == [(3, "spread", "repeat"), (6, "Rows", "repeat")]


def test_hajek_never_expands_a_column_to_its_indices():
    # a letter-level column stands for its multiplicity of indices; a repeat
    # of it would size a step of the Hájek state by that multiplicity, up to n
    assert repeat_calls((SRC / "hajek.py").read_text()) == []


# any of these sends ``np.unique`` down its sort path
UNIQUE_SORT_KEYWORDS = {"return_index", "return_inverse", "return_counts"}


def hash_unique_calls(source: str) -> list[tuple[int, str, str]]:
    """Every ``unique`` call that sets none of ``UNIQUE_SORT_KEYWORDS``, and
    every ``unique_values`` call (``calls_of``'s triples).

    On integers NumPy 2.4 dedupes those two through a hash table that grows
    faster than linearly: on 10^6 int64 codes a bare ``np.unique`` takes
    0.78-0.82 s, where ``return_counts`` takes 17-22 ms, ``return_inverse``
    75-97 ms and ``np.sort`` with a neighbour mask 14 ms (2-core host).
    """
    def sorts(node: ast.Call) -> bool:
        return any(kw.arg in UNIQUE_SORT_KEYWORDS
                   and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                   for kw in node.keywords)

    return sorted((node.lineno, owner, callee) for owner, node, callee in calls(source)
                  if callee == "unique_values" or callee == "unique" and not sorts(node))


def test_checker_finds_hash_unique_calls():
    source = (
        "import numpy as np\n"
        "def edges(codes):\n"
        "    return np.unique(codes)\n"
        "def counts(codes):\n"
        "    return np.unique(codes, return_counts=True)\n"
        "def inverse(codes):\n"
        "    return np.unique(codes, return_inverse=True, return_counts=False)\n"
        "def spelled_out(codes):\n"
        "    return np.unique(codes, return_counts=False)\n"
        "class Values:\n    def distinct(self):\n        return np.unique_values(self.codes)\n"
    )
    assert hash_unique_calls(source) == [
        (3, "edges", "unique"), (9, "spelled_out", "unique"), (12, "Values", "unique_values"),
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_hash_unique(path):
    # a dedupe sorts: np.sort and a neighbour mask, or np.unique with counts
    # or an inverse (``pair_counts`` and ``value_counts``)
    assert hash_unique_calls(path.read_text()) == []


# the summaries of the Hájek engine, with the only (module, top-level
# definition) pairs that may call them: a caller outside ``hajek`` asks
# ``summary_rows``, which picks the kernel pass or the value counts from the
# kernel and family, and only the collision application builds count rows
# from its own category counts
SUMMARY_CALLERS = {
    "means_and_projections": {("hajek.py", "summary_rows")},
    "count_rows": {("hajek.py", "summary_rows"), ("applications.py", "collision_rows")},
}


def second_summary_routes(module: str, source: str) -> list[str]:
    """Every call of a summary builder from outside its callers."""
    return [
        f"{module} line {line}: {callee} in {owner}"
        for line, owner, callee in calls_of(source, SUMMARY_CALLERS)
        if (module, owner) not in SUMMARY_CALLERS[callee]
    ]


def test_checker_finds_second_summary_routes():
    source = (
        "def summary_rows(h, chunks, family):\n"
        "    return count_rows(value_counts(h, chunks, family), family.n, family.k)\n"
        "def collision_rows(chunks, m):\n"
        "    return hajek.count_rows(np.bincount(chunks.ravel(), minlength=m)[None], chunks.size, 2)\n"
        "def fixture_projection_margins(fix):\n"
        "    return ustat.means_and_projections(h, chunks, family)\n"
    )
    assert second_summary_routes("hajek.py", source) == [
        "hajek.py line 4: count_rows in collision_rows",
        "hajek.py line 6: means_and_projections in fixture_projection_margins",
    ]
    assert second_summary_routes("applications.py", source) == [
        "applications.py line 2: count_rows in summary_rows",
        "applications.py line 6: means_and_projections in fixture_projection_margins",
    ]


def test_one_summary_route_outside_hajek():
    # a caller that runs the kernel pass itself skips the count route of the
    # equality kernels, and a second builder of count rows is a second set
    # of columns to keep equal to the first
    found = []
    for path in ALL_MODULES:
        found += second_summary_routes(str(path.relative_to(SRC)), path.read_text())
    assert found == []


# the functions that return one kernel value per subset, and the modules
# that may call them: clip-and-release clips its values in place, and every
# Hájek path reads the means and projections of ``ustat``'s own pass
PER_SUBSET_VALUES = {"chunk_kernel_values", "kernel_values"}
PER_SUBSET_VALUE_MODULES = {"ustat.py", "coinpress.py"}


def per_subset_value_calls(module: str, source: str) -> list[str]:
    """Every call of a per-subset value function from outside its modules."""
    if module in PER_SUBSET_VALUE_MODULES:
        return []
    return [f"{module} line {line}: {callee} in {owner}"
            for line, owner, callee in calls_of(source, PER_SUBSET_VALUES)]


def test_checker_finds_per_subset_value_calls():
    source = (
        "from .ustat import chunk_kernel_values, kernel_values\n"
        "def summary(h, chunks, family):\n"
        "    values = chunk_kernel_values(h, chunks, family)\n"
        "    return values.mean(axis=1)\n"
        "def margins(h, data, family):\n"
        "    return ustat.kernel_values(h, data, family).mean()\n"
    )
    for module in ("hajek.py", "harness/audits.py"):
        assert per_subset_value_calls(module, source) == [
            f"{module} line 3: chunk_kernel_values in summary",
            f"{module} line 6: kernel_values in margins",
        ]
    assert per_subset_value_calls("coinpress.py", source) == []


def test_only_clip_and_release_holds_a_value_per_subset():
    # a Hájek path that asked for the values would hold a (q, M) array the
    # estimator never needs: it reads the means and projections only
    found = []
    for path in ALL_MODULES:
        found += per_subset_value_calls(str(path.relative_to(SRC)), path.read_text())
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


# clip-and-release runs its halving steps and its release step as one loop,
# so ``coinpress`` releases from one place only
CLIP_AND_RELEASE = "_clip_and_release"


def release_call_sites(source: str) -> list[tuple[int, str]]:
    """(line, enclosing top-level definition) of every call of ``releases``."""
    return [(line, owner) for line, owner, _ in calls_of(source, {"releases"})]


def test_checker_finds_release_call_sites():
    source = (
        "from .dp import LAPLACE, releases\n"
        "def _release(values, eps, budgets, rngs):\n"
        "    return releases(LAPLACE, values.mean(axis=1), [1.0], eps, budgets, rngs, 'step')\n"
        "def _clip_and_release(values, t, eps, budgets, rngs):\n"
        "    for _ in range(t):\n"
        "        _release(values, eps / (2 * t), budgets, rngs)\n"
        "    return dp.releases(LAPLACE, values.mean(axis=1), [1.0], eps / 2, budgets, rngs, 'r')\n"
    )
    assert release_call_sites(source) == [(3, "_release"), (7, "_clip_and_release")]


def test_clip_and_release_releases_from_one_call():
    # a helper per step, or an unrolled last step, is a second path through
    # the release that the loop's steps would have to be kept equal to
    sites = release_call_sites((SRC / "coinpress.py").read_text())
    assert [owner for _, owner in sites] == [CLIP_AND_RELEASE]


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
