"""Straightforward implementations that judge the library's own.

Exhaustive enumeration: count_paths, enumerate_paths, aggregate_strings
and equivalent_acyclic list every accepting path of an acyclic
automaton, so they can judge the pipeline and the decoder on small
inputs (acceptance criteria 02-04). log_sum and perplexity are the
plain folds those checks and the scorer tests use. enumerate_paths
raises PathCountError rather than list more paths than its cap.

Differential oracles: n_shortest_strings queues each hypothesis's full
token tuple in its heap entry and lets tuple comparison break ties;
rescore_nbest_dfs carries each trie node's prefix. Both cost time and
memory quadratic in hypothesis length, which the library's versions
avoid, and the tests check that the two agree.
"""

from __future__ import annotations

import heapq
import math

from latbeam import semiring
from latbeam.baselines import RescoredEntry, RescoreResult, _entry_key
from latbeam.decoder import _joint, check_lambdas
from latbeam.errors import LatbeamError, NotDeterministicError, SemiringError
from latbeam.ops import _potentials, _require_acyclic
from latbeam.scorers import EOS_ID
from latbeam.semiring import INF, ZERO, log_add
from latbeam.wfsa import EPS, Wfsa


class PathCountError(LatbeamError):
    """Exhaustive enumeration would exceed its path cap."""


def log_sum(values) -> float:
    """Fold log_add over an iterable of costs. Empty input is ZERO."""
    acc = ZERO
    for v in values:
        acc = log_add(acc, v)
    return acc


def count_paths(w: Wfsa) -> int:
    """Number of accepting paths (cycle-free input only)."""
    order = _require_acyclic(w, "count_paths")
    counts = [0] * w.num_states
    for q in reversed(order):
        total = 1 if q in w.finals else 0
        for arc in w.arcs_from(q):
            if arc.weight != INF:
                total += counts[arc.dst]
        counts[q] = total
    return counts[w.start] if w.num_states else 0


def enumerate_paths(w: Wfsa, cap: int = 10 ** 6) -> list[tuple[tuple[int, ...], float]]:
    """Every accepting path as (label sequence, total cost), DFS order.

    The cost of a path is the plain sum of its arc weights plus the final
    weight; add-aggregation per string is the caller's business (see
    aggregate_strings). Arcs with infinite weight carry no paths. Raises
    PathCountError when the lattice holds more than cap paths.
    """
    total = count_paths(w)
    if total > cap:
        raise PathCountError(f"lattice has {total} paths, cap is {cap}")
    if not w.num_states:
        return []
    paths: list[tuple[tuple[int, ...], float]] = []
    tokens: list[int] = []
    f = w.final_weight(w.start)
    if f != INF:
        paths.append(((), f))
    frames: list[list] = [[w.start, 0, 0.0]]
    while frames:
        frame = frames[-1]
        state, i, acc = frame
        arcs = w.arcs_from(state)
        if i < len(arcs):
            frame[1] += 1
            arc = arcs[i]
            if arc.weight == INF:
                continue
            tokens.append(arc.label)
            cost = acc + arc.weight
            f = w.final_weight(arc.dst)
            if f != INF:
                paths.append((tuple(tokens), cost + f))
            frames.append([arc.dst, 0, cost])
        else:
            frames.pop()
            if tokens:
                tokens.pop()
    return paths


def aggregate_strings(paths, semiring_tag: str) -> dict[tuple[int, ...], float]:
    """Fold a path list into per-string costs with the given addition.

    Epsilon labels are projected out first: the string a path accepts is
    its sequence of real tokens, so paths differing only in epsilons are
    the same string and their costs combine.
    """
    plus = semiring.plus_for(semiring_tag)
    agg: dict[tuple[int, ...], float] = {}
    for tokens, cost in paths:
        string = tuple(t for t in tokens if t != EPS)
        agg[string] = plus(agg.get(string, INF), cost)
    return agg


def equivalent_acyclic(a: Wfsa, b: Wfsa, tol: float = 1e-9,
                       cap: int = 10 ** 6) -> bool:
    """Compare two acyclic acceptors string by string.

    Both languages are enumerated exhaustively, aggregated with the shared
    semiring's addition, and compared over the union of their strings at
    absolute tolerance tol.
    """
    if a.semiring != b.semiring:
        raise SemiringError("cannot compare automata over different semirings")
    agg_a = aggregate_strings(enumerate_paths(a, cap), a.semiring)
    agg_b = aggregate_strings(enumerate_paths(b, cap), b.semiring)
    for key in agg_a.keys() | agg_b.keys():
        ca = agg_a.get(key, INF)
        cb = agg_b.get(key, INF)
        if ca == INF or cb == INF:
            if ca != cb:
                return False
            continue
        if not abs(ca - cb) <= tol:
            return False
    return True


def perplexity(scorer, corpus) -> float:
    """exp of the average per-event negative log-probability, eos included."""
    total = 0.0
    events = 0
    for sent in corpus:
        state = scorer.start()
        for token in sent:
            pred = scorer.predict(state)
            if token in scorer.vocab:
                total += pred.in_vocab[token]
            else:
                total += pred.unk_logprob
            state = scorer.consume(state, token)
            events += 1
        total += scorer.predict(state).eos_logprob
        events += 1
    if not events:
        raise ValueError("empty corpus")
    return math.exp(-total / events)


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
