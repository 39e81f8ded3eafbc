"""Weighted lattice rescoring: normalize translation lattices into
stochastic predictive automata and beam-decode them together with an
external left-to-right scorer."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CyclicLatticeError,
    EmptyLatticeError,
    EpsilonArcError,
    EpsilonCycleError,
    LatbeamError,
    LatticeFormatError,
    NotCoaccessibleError,
    NotDeterministicError,
    NotStochasticError,
    PathCountError,
    ScorerFormatError,
    SearchError,
    SemiringError,
    TuneError,
    UnknownSymbolError,
)
from .semiring import INF, LOG, ONE, TROPICAL, ZERO, log_add, log_sum, trop_add
from .wfsa import (
    EPS,
    EPS_SYM,
    Arc,
    SymbolTable,
    ValidationReport,
    Wfsa,
    format_symbols,
    parse_symbols,
    parse_wfsa,
    serialize_wfsa,
    topological_order,
    validate,
)
from .ops import (
    aggregate_strings,
    check_stochastic,
    connect,
    count_paths,
    determinize,
    enumerate_paths,
    equivalent_acyclic,
    minimize,
    n_shortest_strings,
    push_log,
    rm_epsilon,
)
from .posterior import (
    REJECT,
    PosteriorLattice,
    prepare,
)
from .scorers import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    NgramScorer,
    Prediction,
    TableScorer,
    UniformScorer,
    load_ngram_model,
    load_table_scorer,
    perplexity,
    train_ngram,
)
from .decoder import (
    DecodeResult,
    DecoderConfig,
    Hypothesis,
    decode,
    local_log_norm,
)
from .baselines import (
    NBestList,
    RescoredEntry,
    RescoreResult,
    decode_unconstrained,
    nbest_from_posterior,
    rescore_nbest_dfs,
    rescore_nbest_naive,
)
from .bleu import BleuReport, TuneResult, corpus_bleu, tune_grid
from .synth import (
    build_demo,
    lattice_prefixes,
    random_acyclic_wfsa,
    random_table_scorer,
    sausage_lattice,
    write_demo,
)

__all__ = [name for name in dir() if not name.startswith("_")]
