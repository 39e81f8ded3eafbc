"""Straightforward implementations kept as differential oracles.

n_shortest_strings queues each hypothesis's full token tuple in its heap
entry and lets tuple comparison break ties; rescore_nbest_dfs carries
each trie node's prefix. Both cost time and memory quadratic in
hypothesis length, which the library's versions avoid, and the tests
check that the two agree.
"""

from __future__ import annotations

import heapq

from latbeam import semiring
from latbeam.baselines import RescoredEntry, RescoreResult, _entry_key
from latbeam.decoder import _joint, check_lambdas
from latbeam.errors import NotDeterministicError
from latbeam.ops import _potentials, _require_acyclic
from latbeam.scorers import EOS_ID
from latbeam.semiring import INF


def n_shortest_strings(w, n: int) -> list[tuple[tuple[int, ...], float]]:
    """The n cheapest accepted strings of a deterministic acyclic acceptor,
    ties toward the lexicographically smaller token sequence."""
    if not w.is_deterministic():
        raise NotDeterministicError("n_shortest_strings requires a deterministic lattice")
    order = _require_acyclic(w, "n_shortest_strings")
    if not w.num_states or n <= 0:
        return []
    potential = _potentials(w, order, semiring.trop_add)
    if potential[w.start] == INF:
        return []

    results: list[tuple[tuple[int, ...], float]] = []
    # heap entries: (bound, tokens, done, state, accumulated cost)
    heap: list[tuple] = [(potential[w.start], (), 0, w.start, 0.0)]
    while heap and len(results) < n:
        bound, tokens, done, state, acc = heapq.heappop(heap)
        if done:
            results.append((tokens, acc))
            continue
        f = w.final_weight(state)
        if f != INF:
            heapq.heappush(heap, (acc + f, tokens, 1, -1, acc + f))
        for label, weight, dst in w.arcs[state]:
            if potential[dst] == INF or weight == INF:
                continue
            cost = acc + weight
            heapq.heappush(heap, (cost + potential[dst], tokens + (label,), 0, dst, cost))
    return results


def rescore_nbest_dfs(nbest, scorer, lambda_lat: float = 1.0,
                      lambda_scorer: float = 1.0) -> RescoreResult:
    """Rescore an n-best list depth first over its prefix trie, keying
    each hypothesis's scorer term by its tokens."""
    check_lambdas(lambda_lat, lambda_scorer)
    trie: dict = {}
    for tokens, _ in nbest.entries:
        node = trie
        for token in tokens + (EOS_ID,):
            node = node.setdefault(token, {})

    scorer_logprobs: dict[tuple[int, ...], float] = {}
    calls = 0
    stack = [(t, trie, scorer.start(), (), 0.0) for t in sorted(trie, reverse=True)]
    while stack:
        token, node, state, prefix, acc = stack.pop()
        pred = scorer.predict(state)
        calls += 1
        if token == EOS_ID:
            scorer_logprobs[prefix] = acc + pred.eos_logprob
            continue
        child, state = node[token], scorer.consume(state, token)
        prefix, acc = prefix + (token,), acc + pred.logprob(token)
        for t in sorted(child, reverse=True):
            stack.append((t, child, state, prefix, acc))

    ranked = []
    for tokens, lat in nbest.entries:
        scorer_lp = scorer_logprobs[tokens]
        joint = _joint(lambda_lat, lat, lambda_scorer, scorer_lp)
        ranked.append(RescoredEntry(tokens, joint, lat, scorer_lp))
    ranked.sort(key=_entry_key)
    return RescoreResult(ranked, calls)
