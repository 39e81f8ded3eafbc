"""The public surface: names that only the tests use live under tests/,
bad arguments in code raise ConfigError, and record types keep their
fields and constructors."""

import importlib
import math

import pytest

import latbeam
from latbeam import semiring
from latbeam.baselines import NBestList, RescoredEntry, RescoreResult
from latbeam.bleu import BleuReport, TuneResult
from latbeam.decoder import DecodeResult, DecoderConfig, Hypothesis
from latbeam.errors import ConfigError
from latbeam.scorers import NgramScorer, Prediction
from latbeam.synth import DemoSet
from latbeam.wfsa import ValidationReport, Wfsa

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
    "DecoderConfig-beam": lambda: DecoderConfig(beam=0),
    "NBestList-duplicate": lambda: NBestList([((1,), -0.5), ((1,), -0.6)]),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_a_config_error(call):
    with pytest.raises(ConfigError) as exc:
        call()
    assert isinstance(exc.value, ValueError)


# the field names, in order, of each record type: NamedTuples for
# records never changed once built, slotted classes for the rest
RECORDS = {
    ValidationReport: ("n_states", "n_arcs", "n_finals", "n_accessible",
                       "n_coaccessible", "is_acyclic", "has_epsilon",
                       "is_deterministic", "is_empty", "arcs_per_state"),
    Prediction: ("in_vocab", "unk_logprob", "eos_logprob"),
    DecodeResult: ("best", "beam", "node_expansions"),
    RescoredEntry: ("tokens", "joint_score", "lattice_logprob", "scorer_logprob"),
    RescoreResult: ("ranked", "predict_calls"),
    BleuReport: ("score", "precisions", "brevity_penalty", "hyp_length",
                 "ref_length", "matched", "totals"),
    TuneResult: ("lambda_lat", "lambda_scorer", "bleu", "history"),
    DemoSet: ("symbols", "lattices", "references", "train_corpus", "ids"),
}
SLOTTED = {
    DecoderConfig: ("beam", "lambda_lat", "lambda_scorer", "local_softmax"),
    Hypothesis: ("score", "lattice_state", "scorer_state", "node", "finished"),
    NBestList: ("entries", "source_id"),
}


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=[c.__name__ for c in RECORDS])
def test_record_is_a_named_tuple_with_its_fields(cls, fields):
    assert issubclass(cls, tuple)
    assert cls._fields == fields


@pytest.mark.parametrize("cls, fields", SLOTTED.items(), ids=[c.__name__ for c in SLOTTED])
def test_mutable_type_keeps_its_slots(cls, fields):
    assert not issubclass(cls, tuple)
    assert cls.__slots__ == fields


def test_constructors_keep_positional_and_keyword_forms():
    cfg = DecoderConfig(4, 0.5, 2.0, True)
    assert (cfg.beam, cfg.lambda_lat, cfg.lambda_scorer) == (4, 0.5, 2.0)
    assert cfg.local_softmax
    nbest = NBestList([((1,), -0.5), ((2,), -0.6)], source_id="7")
    assert (len(nbest), nbest.source_id) == (2, "7")
    hyp = Hypothesis(-1.0, 3, (), node=((), 5), finished=True)
    assert (hyp.prefix, hyp.finished) == ((5,), True)
    assert TuneResult(0.5, 1.0, None).history == ()


def test_prediction_fields_cannot_be_assigned():
    with pytest.raises(AttributeError):
        ROW.unk_logprob = 0.0
