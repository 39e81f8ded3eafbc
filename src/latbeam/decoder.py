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
is expanded once per iteration (one node expansion), and finished
hypotheses ride along in the same beam untouched. Within an iteration,
hypotheses with equal lattice and scorer states share one scorer
predict call and one expansion, and survivors with equal scorer states
and tokens share one consume call; equal states have equal futures, so
this changes no score. The search calls consume only for hypotheses
that survive the beam, when they are expanded. A hypothesis holds its
prefix as a back-pointer node, (parent node, token) with () at the
root, as ops._n_shortest's heap entries do, so the whole beam's history
costs one tuple per token and each prefix is spelled only when read. It
has no step cap: it ends within the lattice's depth + 1 iterations (see
decode).
"""

from __future__ import annotations

import math
from itertools import count
from operator import itemgetter
from typing import Any, NamedTuple

from .errors import ConfigError
from .ops import _spell
from .posterior import PosteriorLattice
from .scorers import Prediction, logsumexp

NEG_INF = -math.inf


def check_lambdas(lambda_lat: float, lambda_scorer: float) -> None:
    """Both weights finite and non-negative and at least one positive,
    else ConfigError."""
    if not (0 <= lambda_lat < math.inf and 0 <= lambda_scorer < math.inf):
        raise ConfigError("lambdas must be finite and non-negative")
    if lambda_lat == 0 and lambda_scorer == 0:
        raise ConfigError("at least one lambda must be positive")


class DecoderConfig:
    __slots__ = ("beam", "lambda_lat", "lambda_scorer", "local_softmax")

    def __init__(self, beam: int = 12, lambda_lat: float = 1.0,
                 lambda_scorer: float = 1.0, local_softmax: bool = False):
        if beam < 1:
            raise ConfigError("beam must be at least 1")
        check_lambdas(lambda_lat, lambda_scorer)
        self.beam = beam
        self.lambda_lat = lambda_lat
        self.lambda_scorer = lambda_scorer
        self.local_softmax = local_softmax


class Hypothesis:
    """A search node. node is its prefix as a back-pointer node:
    (parent node, last token), or () for the empty prefix. decode sets
    scorer_state when the hypothesis consumes its last token."""

    __slots__ = ("score", "lattice_state", "scorer_state", "node", "finished")

    def __init__(self, score: float, lattice_state: int, scorer_state: Any,
                 node: tuple = (), finished: bool = False):
        self.score = score
        self.lattice_state = lattice_state
        self.scorer_state = scorer_state
        self.node = node
        self.finished = finished

    @property
    def prefix(self) -> tuple[int, ...]:
        return _spell(self.node)


class DecodeResult(NamedTuple):
    """The best finished hypothesis, the final beam and the number of
    live hypotheses expanded.

    A hypothesis consumes its last token only when it is expanded, so an
    unfinished entry of the final beam, never expanded, holds the
    scorer_state from before its last token.
    """

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


def decode(lattice: PosteriorLattice, scorer,
           cfg: DecoderConfig | None = None) -> DecodeResult:
    """Fused beam decode; returns the best finished hypothesis.

    Stops as soon as the top of the beam is finished: scores only drop
    as prefixes grow, all terms being log-probabilities, so nothing
    pending can overtake it within the beam. That happens within
    lattice.depth + 1 iterations. A PosteriorLattice is trimmed, acyclic
    and stochastic, so every state has arcs or stop mass, and a live
    hypothesis of iteration n sits at a state n arcs from the start.
    Every expansion thus yields a candidate, and at iteration
    lattice.depth no arc leaves a live hypothesis's state, so it can
    only finish; whatever the scores, even NaN, the whole beam is then
    finished. The output prefix is accepted by the lattice by
    construction.

    expand(lattice_state, pred) returns [(token, step_score, next_state)]
    and the score of finishing there, or None; it runs once per distinct
    (lattice state, scorer state) in a step. A candidate is a plain tuple
    (-score, length, lex, parent, next_state) until it survives the beam.
    Tuples sort best first, then shorter, then by lex, which orders
    hypotheses of one length as their prefixes would: they come from one
    generation, and lex is (rank of the parent among that generation in
    prefix order, token), or the lex of the hypothesis that finishes.
    """
    if cfg is None:
        cfg = DecoderConfig()
    width = cfg.beam
    lambda_lat, lambda_scorer = cfg.lambda_lat, cfg.lambda_scorer
    # local_softmax renormalizes the scorer mass over the tokens on a
    # state's arcs, once per state; a dropped scorer term needs no norm
    renormalize = cfg.local_softmax and lambda_scorer

    def expand(state, pred):
        arcs = lattice.successors(state)
        logprob = pred.logprob
        norm = local_log_norm(pred, [arc.label for arc in arcs]) if renormalize else 0.0
        if norm == NEG_INF:  # no mass to renormalize: each term stays -inf, not NaN
            norm = 0.0
        steps = []
        for label, weight, dst in arcs:  # weight is the negative conditional log-probability
            step = _joint(lambda_lat, -weight, lambda_scorer, logprob(label) - norm)
            steps.append((label, step, dst))
        final_logprob = lattice.final_logprob(state)
        if final_logprob == NEG_INF:
            return steps, None
        return steps, _joint(lambda_lat, final_logprob, lambda_scorer, pred.eos_logprob)

    live = [((), Hypothesis(0.0, lattice.start, scorer.start()))]  # (lex, hyp), prefix order
    done = []  # finished survivors, as (-score, length, lex, hyp, None)
    expansions = 0
    for length in count():
        candidates = done
        consumed = {}  # (scorer state, token) -> consume(...), this step
        expanded = {}  # (lattice state, scorer state) -> expand(...), this step
        for rank, (lex, hyp) in enumerate(live):
            if hyp.node:  # its last token is consumed now, not at survival
                pair = (hyp.scorer_state, hyp.node[1])
                if pair not in consumed:
                    consumed[pair] = scorer.consume(*pair)
                hyp.scorer_state = consumed[pair]
            key = (hyp.lattice_state, hyp.scorer_state)
            if key not in expanded:
                expanded[key] = expand(hyp.lattice_state, scorer.predict(hyp.scorer_state))
            steps, end = expanded[key]
            for token, step, state in steps:
                candidates.append((-(hyp.score + step), length + 1, (rank, token), hyp, state))
            if end is not None:  # finishing keeps hyp's prefix: the same node
                fin = Hypothesis(hyp.score + end, hyp.lattice_state, hyp.scorer_state,
                                 hyp.node, True)
                candidates.append((-fin.score, length, lex, fin, None))
        expansions += len(live)
        candidates.sort()
        beam, live, done = [], [], []
        for cand in candidates[:width]:
            neg, _, lex, hyp, state = cand
            if state is None:
                done.append(cand)
            else:
                # the parent's scorer state, until this one is expanded
                hyp = Hypothesis(-neg, state, hyp.scorer_state, (hyp.node, lex[1]))
                live.append((lex, hyp))
            beam.append(hyp)
        if beam[0].finished:
            return DecodeResult(beam[0], beam, expansions)
        live.sort(key=itemgetter(0))
