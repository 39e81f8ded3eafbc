"""The public surface: names that only the tests use live under tests/."""

import importlib

import pytest

import latbeam

# (old module, attribute path) of every name that moved into tests/
MOVED = [
    ("ops", "count_paths"),
    ("ops", "enumerate_paths"),
    ("ops", "aggregate_strings"),
    ("ops", "equivalent_acyclic"),
    ("errors", "PathCountError"),
    ("scorers", "perplexity"),
    ("synth", "random_acyclic_wfsa"),
    ("synth", "lattice_prefixes"),
    ("synth", "random_table_scorer"),
    ("synth", "_rng"),
    ("semiring", "log_sum"),
    ("posterior", "PosteriorLattice.vocabulary"),
    ("wfsa", "SymbolTable.from_tokens"),
    ("wfsa", "Wfsa.iter_arcs"),
]


@pytest.mark.parametrize("module, path", MOVED, ids=[f"{m}.{p}" for m, p in MOVED])
def test_moved_name_is_gone(module, path):
    owner = importlib.import_module(f"latbeam.{module}")
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, name)
    assert name not in latbeam.__all__

