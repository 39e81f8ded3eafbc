"""Beam search over a posterior lattice fused with an external scorer.

Each step of a hypothesis scores a lattice arc together with the scorer's
opinion of the same token:

    lambda_lat * -arc.weight + lambda_scorer * scorer term

where the scorer term is the token's own mass when the scorer knows it
and the unknown-word mass otherwise; several unknown arcs out of one
state each get the full unk mass. Finishing costs the lattice's stop
mass plus the scorer's eos mass, weighted the same way. That weighted
sum is written once, in _joint, which n-best rescoring shares too. The
search is breadth-first and output-synchronous: every live hypothesis
is expanded once per iteration (one node expansion = one scorer
predict call), and finished hypotheses ride along in the same beam
untouched. One loop serves this decoder and the unconstrained baseline;
it calls the scorer's consume only for hypotheses that survive the
beam and reads prefixes back through parent pointers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from .errors import ConfigError, SearchError
from .posterior import PosteriorLattice
from .scorers import Prediction, logsumexp

NEG_INF = -math.inf


def check_lambdas(lambda_lat: float, lambda_scorer: float) -> None:
    """Both weights non-negative and at least one positive, else ConfigError."""
    if not (lambda_lat >= 0 and lambda_scorer >= 0):
        raise ConfigError("lambdas must be non-negative")
    if lambda_lat == 0 and lambda_scorer == 0:
        raise ConfigError("at least one lambda must be positive")


@dataclass(slots=True)
class DecoderConfig:
    beam: int = 12
    lambda_lat: float = 1.0
    lambda_scorer: float = 1.0
    local_softmax: bool = False
    max_steps: int | None = None

    def __post_init__(self):
        if self.beam < 1:
            raise ConfigError("beam must be at least 1")
        check_lambdas(self.lambda_lat, self.lambda_scorer)
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps must be positive")


@dataclass(slots=True, eq=False)
class Hypothesis:
    """A search node; its prefix is read back through parent pointers."""

    score: float
    lattice_state: int
    scorer_state: Any
    parent: Hypothesis | None = field(default=None, repr=False)
    token: int | None = None
    finished: bool = False

    @property
    def prefix(self) -> tuple[int, ...]:
        tokens, hyp = [], self
        while hyp.parent is not None:
            tokens.append(hyp.token)
            hyp = hyp.parent
        return tuple(reversed(tokens))


@dataclass(slots=True)
class DecodeResult:
    best: Hypothesis
    beam: list[Hypothesis]
    node_expansions: int


def local_log_norm(pred: Prediction, state_tokens) -> float:
    """Scorer mass, in log space, of exactly the tokens the lattice allows.

    Out-of-vocabulary tokens each contribute the full unk mass, matching
    how they are scored.
    """
    return logsumexp(pred.logprob(t) for t in state_tokens)


def _joint(lambda_lat: float, lattice_term: float, lambda_scorer: float,
           scorer_term: float) -> float:
    """The one weighted sum every joint score is: decode steps, decode
    stop terms and n-best rescoring.

    A zero lambda drops its term outright, so a lambda of 0 really
    removes that model and 0 * -inf never becomes NaN.
    """
    return ((lambda_lat * lattice_term if lambda_lat else 0.0)
            + (lambda_scorer * scorer_term if lambda_scorer else 0.0))


def _beam_search(start: int, scorer, width: int, max_steps: int,
                 expand) -> DecodeResult:
    """The search loop of every decoding mode.

    expand(lattice_state, pred) returns [(token, step_score, next_state)]
    and the score of finishing there, or None. A candidate is a plain tuple
    (-score, length, lex, parent, next_state) until it survives the beam.
    Tuples sort best first, then shorter, then by lex, which orders
    hypotheses of one length as their prefixes would: they come from one
    generation, and lex is (rank of the parent among that generation in
    prefix order, token), or the lex of the hypothesis that finishes.
    """
    live = [((), Hypothesis(0.0, start, scorer.start()))]  # (lex, hyp), prefix order
    done = []  # finished survivors, as (-score, length, lex, hyp, None)
    best_done = None
    expansions = 0
    for length in range(max_steps):
        candidates = done
        for rank, (lex, hyp) in enumerate(live):
            pred = scorer.predict(hyp.scorer_state)
            expansions += 1
            steps, end = expand(hyp.lattice_state, pred)
            for token, step, state in steps:
                candidates.append((-(hyp.score + step), length + 1, (rank, token), hyp, state))
            if end is not None:  # finishing keeps hyp's prefix: same parent and token
                fin = Hypothesis(hyp.score + end, hyp.lattice_state, hyp.scorer_state,
                                 hyp.parent, hyp.token, True)
                cand = (-fin.score, length, lex, fin, None)
                candidates.append(cand)
                best_done = cand if best_done is None else min(best_done, cand)
        candidates.sort()
        beam, live, done = [], [], []
        for cand in candidates[:width]:
            neg, _, lex, hyp, state = cand
            if state is None:
                done.append(cand)
            else:
                hyp = Hypothesis(-neg, state, scorer.consume(hyp.scorer_state, lex[1]),
                                 hyp, lex[1])
                live.append((lex, hyp))
            beam.append(hyp)
        if beam[0].finished:
            return DecodeResult(beam[0], beam, expansions)
        live.sort(key=itemgetter(0))
    if best_done is None:
        raise SearchError(f"no finished hypothesis within {max_steps} steps")
    return DecodeResult(best_done[3], beam, expansions)


def decode(lattice: PosteriorLattice, scorer,
           cfg: DecoderConfig | None = None) -> DecodeResult:
    """Fused beam decode; returns the best finished hypothesis.

    Terminates as soon as the top of the beam is finished (scores only
    drop as prefixes grow, all terms being log-probabilities, so nothing
    pending can overtake it within the beam), or after max_steps
    iterations, defaulting to three times the lattice depth, in which
    case the best finished hypothesis seen anywhere is returned. A search
    that never finishes anything raises SearchError. The output prefix is
    accepted by the lattice by construction.
    """
    if cfg is None:
        cfg = DecoderConfig()
    max_steps = cfg.max_steps or max(1, 3 * lattice.depth)

    lambda_lat, lambda_scorer = cfg.lambda_lat, cfg.lambda_scorer
    # local_softmax renormalizes the scorer mass over the tokens on a
    # state's arcs, once per state; a dropped scorer term needs no norm
    renormalize = cfg.local_softmax and lambda_scorer

    def expand(state, pred):
        arcs = lattice.successors(state)
        logprob = pred.logprob
        norm = local_log_norm(pred, [arc.label for arc in arcs]) if renormalize else 0.0
        steps = []
        for label, weight, dst in arcs:  # weight is the negative conditional log-probability
            step = _joint(lambda_lat, -weight, lambda_scorer, logprob(label) - norm)
            steps.append((label, step, dst))
        final_logprob = lattice.final_logprob(state)
        if final_logprob == NEG_INF:
            return steps, None
        return steps, _joint(lambda_lat, final_logprob, lambda_scorer, pred.eos_logprob)

    return _beam_search(lattice.start, scorer, cfg.beam, max_steps, expand)
