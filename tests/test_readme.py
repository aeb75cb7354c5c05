"""The README's library example runs as written against the package."""

import re
import warnings
from pathlib import Path

import pytest

from privustat.errors import PreconditionWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_example_runs_and_debits_its_ledger(capsys):
    (block,) = python_blocks()
    namespace: dict = {}
    with warnings.catch_warnings():
        # the example picks sizes at which every guarantee it uses holds
        warnings.simplefilter("error", PreconditionWarning)
        exec(compile(block, str(README), "exec"), namespace)
    budget = namespace["budget"]
    # one collision release at eps 1 and one boosted block at eps 1
    assert budget.spent == pytest.approx(2.0, rel=0, abs=1e-12)
    assert "privacy ledger: spent 2 of 2" in capsys.readouterr().out
