"""Shared test configuration.

The recursive core algorithms raise the interpreter recursion limit on
demand (``repro.core.recursion``); doing it once up front keeps hypothesis
from warning about a mid-test limit change.
"""

import contextlib
import sys

import pytest

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


@pytest.fixture(autouse=True)
def _cold_shared_memo():
    """Start every test with a cold process-wide subtype memo.

    The shared memo deliberately leaks verdicts across engines — that is
    its job — but tests that count memo hits/entries must see the same
    cold-start behaviour the seed code had, independent of test order.
    """
    from repro.core.shared_memo import SHARED_MEMO

    SHARED_MEMO.clear()
    yield
    SHARED_MEMO.clear()


@pytest.fixture()
def fast_path_off(monkeypatch):
    """A context manager that runs its block with one fast path off.

    ``with fast_path_off("automata"):`` makes ``AUTOMATA.automaton_for``
    hand out no automaton, so every engine built inside the block runs
    the template-expansion path; ``"shared_memo"`` makes
    ``SHARED_MEMO.table_for`` hand out no table, so every engine keeps a
    private cold memo.  The block gets the list of constraint sets the
    store was asked for (empty if nothing in the block consults that
    store); on leaving it the fixture checks that the store attached
    nothing, i.e. the block really ran without the fast path.
    """
    from repro.core.automata import AUTOMATA
    from repro.core.shared_memo import SHARED_MEMO

    stores = {
        "automata": (AUTOMATA, "automaton_for"),
        "shared_memo": (SHARED_MEMO, "table_for"),
    }

    @contextlib.contextmanager
    def off(name):
        store, method = stores[name]
        asked = []

        def refuse(constraints):
            asked.append(constraints)
            return None

        attachments = store.attachments
        with monkeypatch.context() as patch:
            patch.setattr(store, method, refuse)
            yield asked
        assert store.attachments == attachments

    return off
