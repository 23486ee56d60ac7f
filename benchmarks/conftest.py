"""Benchmark harness plumbing.

Every benchmark regenerates one of the paper's tables/figures and
prints the rows it produced (run with ``-s`` to see them inline; they
are also collected into the untracked ``.bench-tables.txt`` in the repo
root, holding just the tables of the last session's benchmarks).  The
pinned table artifact is ``experiments_output.txt``, which ``make
experiments-check`` compares against a fresh ``repro experiments
--extensions`` run.
"""

import os

import pytest

_RENDERED = []


def emit(table) -> None:
    """Record and display a rendered table."""
    text = table.render()
    _RENDERED.append(text)
    print("\n" + text)


@pytest.fixture(scope="session", autouse=True)
def _write_tables_at_exit():
    yield
    if not _RENDERED:
        return
    path = os.path.join(os.path.dirname(__file__), "..", ".bench-tables.txt")
    with open(os.path.abspath(path), "w") as handle:
        handle.write("\n\n".join(_RENDERED) + "\n")
