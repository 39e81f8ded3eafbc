"""The public surface: names that only the tests use live under tests/,
and bad arguments in code raise ConfigError."""

import importlib
import math

import pytest

import latbeam
from latbeam import semiring
from latbeam.errors import ConfigError
from latbeam.scorers import NgramScorer, Prediction
from latbeam.wfsa import Wfsa

# (old module, attribute path) of every name that moved into tests/, and
# of the unconstrained decode and the decoder's step cap, which are gone
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
    ("baselines", "decode_unconstrained"),
    ("errors", "SearchError"),
    ("decoder", "DecoderConfig.max_steps"),
]


@pytest.mark.parametrize("module, path", MOVED, ids=[f"{m}.{p}" for m, p in MOVED])
def test_moved_name_is_gone(module, path):
    owner = importlib.import_module(f"latbeam.{module}")
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, name)
    assert name not in latbeam.__all__


ROW = Prediction({1: math.log(0.5)}, math.log(0.25), math.log(0.25))

BAD_ARGUMENTS = {
    "plus_for": lambda: semiring.plus_for("real"),
    "Wfsa": lambda: Wfsa("real"),
    "Wfsa.retagged": lambda: Wfsa().retagged("real"),
    "NgramScorer-order": lambda: NgramScorer(0, {1}, {(): ROW}),
    "NgramScorer-no-empty-context": lambda: NgramScorer(2, {1}, {(1,): ROW}),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_a_config_error(call):
    with pytest.raises(ConfigError) as exc:
        call()
    assert isinstance(exc.value, ValueError)
