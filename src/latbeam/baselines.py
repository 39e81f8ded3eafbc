"""Reference decoding modes the lattice-fused decoder is measured against.

Two ways to use the scorer without walking the lattice arc by arc:
rescore an n-best list of lattice hypotheses either one hypothesis at a
time or with a depth-first sweep of their shared prefix trie. The list
comes from the lattice alone (nbest_from_posterior). Rescoring cost is
counted in scorer predict calls, one per scored token (eos included).
The decoder's node expansions count live hypotheses expanded, which
may share one predict call, so the two units differ.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .decoder import _joint, check_lambdas
from .errors import ConfigError
from .ops import _n_shortest
from .posterior import PosteriorLattice
from .scorers import EOS_ID


class NBestList:
    """Distinct lattice hypotheses with their lattice log-probabilities,
    best first."""

    __slots__ = ("entries", "source_id")

    def __init__(self, entries: list[tuple[tuple[int, ...], float]],
                 source_id: str = ""):
        seen = set()
        last = math.inf
        for tokens, logprob in entries:
            if tokens in seen:
                raise ConfigError(f"duplicate n-best entry {tokens!r}")
            seen.add(tokens)
            if logprob > last:
                raise ConfigError("n-best log-probabilities must be non-increasing")
            last = logprob
        self.entries = entries
        self.source_id = source_id

    def __len__(self) -> int:
        return len(self.entries)


def nbest_from_posterior(lattice: PosteriorLattice, n: int,
                         source_id: str = "") -> NBestList:
    """Best n strings of a posterior lattice with normalized log-probs.

    The lattice was verified deterministic and acyclic when it was
    built, so this runs n_shortest_strings' search on its topological
    order without checking again. The search pops entries by bounds
    summed as (cost + arc) + potential, not in path order, so an exact
    path cost can come out an ulp below the one before it; each
    log-probability is clamped to at most its predecessor's.
    """
    entries = []
    last = math.inf
    for tokens, cost in _n_shortest(lattice.inner, lattice.order, n):
        if -cost <= last:
            last = -cost
        entries.append((tokens, last))
    return NBestList(entries, source_id)


class RescoredEntry(NamedTuple):
    tokens: tuple[int, ...]
    joint_score: float
    lattice_logprob: float
    scorer_logprob: float


class RescoreResult(NamedTuple):
    ranked: list[RescoredEntry]
    predict_calls: int


def _entry_key(entry: RescoredEntry):
    return (-entry.joint_score, len(entry.tokens), entry.tokens)


def _combine(nbest: NBestList, scorer_logprobs: list[float], lambda_lat,
             lambda_scorer) -> list[RescoredEntry]:
    """Rank the entries; scorer_logprobs[i] is entry i's scorer term."""
    entries = []
    for (tokens, lat), scorer_lp in zip(nbest.entries, scorer_logprobs):
        joint = _joint(lambda_lat, lat, lambda_scorer, scorer_lp)
        entries.append(RescoredEntry(tokens, joint, lat, scorer_lp))
    entries.sort(key=_entry_key)
    return entries


def rescore_nbest_naive(nbest: NBestList, scorer, lambda_lat: float = 1.0,
                        lambda_scorer: float = 1.0) -> RescoreResult:
    """Rescore each hypothesis independently, left to right.

    Costs length+1 predict calls per hypothesis (one per token plus the
    eos term). The lattice term is taken from the list, and the joint
    score is the decoder's weighted sum (_joint). The lambdas follow
    DecoderConfig's rules (check_lambdas).
    """
    check_lambdas(lambda_lat, lambda_scorer)
    scorer_logprobs = []
    calls = 0
    for tokens, _ in nbest.entries:
        state = scorer.start()
        total = 0.0
        for token in tokens:
            pred = scorer.predict(state)
            calls += 1
            total += pred.logprob(token)
            state = scorer.consume(state, token)
        pred = scorer.predict(state)
        calls += 1
        total += pred.eos_logprob
        scorer_logprobs.append(total)
    return RescoreResult(_combine(nbest, scorer_logprobs, lambda_lat, lambda_scorer),
                         calls)


def rescore_nbest_dfs(nbest: NBestList, scorer, lambda_lat: float = 1.0,
                      lambda_scorer: float = 1.0) -> RescoreResult:
    """Rescore via depth-first traversal of the hypotheses' prefix trie.

    Scorer states are reused along shared prefixes, so the predict-call
    count equals the number of trie nodes (hypotheses terminated by eos,
    root excluded): never more than the naive sweep, strictly fewer as
    soon as two hypotheses share a prefix. The ranking is identical to
    rescore_nbest_naive, term by term.
    """
    check_lambdas(lambda_lat, lambda_scorer)
    # each entry ends in an eos leaf holding its index, so no node needs
    # the prefix that leads to it
    trie: dict = {}
    for i, (tokens, _) in enumerate(nbest.entries):
        node = trie
        for token in tokens:
            node = node.setdefault(token, {})
        node[EOS_ID] = i

    scorer_logprobs = [0.0] * len(nbest.entries)
    calls = 0
    # depth first without recursion: children pushed in reverse pop in order
    stack = [(t, trie, scorer.start(), 0.0) for t in sorted(trie, reverse=True)]
    while stack:
        token, node, state, acc = stack.pop()
        # one predict per scored token: this models the per-position
        # cost of a left-to-right scorer, the same unit naive pays
        pred = scorer.predict(state)
        calls += 1
        if token == EOS_ID:
            scorer_logprobs[node[EOS_ID]] = acc + pred.eos_logprob
            continue
        child, state = node[token], scorer.consume(state, token)
        acc += pred.logprob(token)
        for t in sorted(child, reverse=True):
            stack.append((t, child, state, acc))
    return RescoreResult(_combine(nbest, scorer_logprobs, lambda_lat, lambda_scorer),
                         calls)
