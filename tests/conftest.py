import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from toughkit.harness import SUITES, EnumerationSource, run_suites


@pytest.fixture(scope="session")
def sweep7():
    """All suites over the full n <= 7 enumeration, classified once.

    Shared by the acceptance criteria; labeled below 7 vertices, one
    representative per isomorphism class at 7.
    """
    reports = run_suites(list(SUITES), EnumerationSource(range(1, 8)))
    return {rep.suite: rep for rep in reports}


class Budget:
    """Counts the calls of the functions it wraps; the count raises once it
    passes ``limit``, so a search that loses a cutoff fails instead of
    hanging."""

    def __init__(self, limit, what):
        self.calls, self.limit, self.what = 0, limit, what

    def wrap(self, real):
        def counted(*args):
            self.calls += 1
            assert self.calls <= self.limit, f"{self.what} ran past its budget"
            return real(*args)

        return counted


@pytest.fixture
def count_components(monkeypatch):
    """count_components(limit) counts the toughness module's component
    counts, by BFS and by table, against a ``Budget``."""
    module = importlib.import_module("toughkit.toughness")

    def install(limit, what="cutset scan"):
        budget = Budget(limit, what)
        for name in ("component_count", "table_component_count"):
            monkeypatch.setattr(module, name, budget.wrap(getattr(module, name)))
        return budget

    return install
