"""Algorithms over acyclic weighted acceptors.

Everything here treats its input as read-only and returns a new Wfsa.
The operations compose into the standard preprocessing pipeline

    rm_epsilon -> determinize -> minimize -> push_log

which posterior.prepare() runs to turn an unnormalized lattice into a
deterministic acceptor whose arc weights are negative conditional
log-probabilities. Arcs are Arc NamedTuples that unpack as
(label, weight, dst); the loops here unpack them rather than read
attributes. Each stage writes its output arcs once, straight into the
arc lists, and skips work its input does not need: rm_epsilon builds
no closure for epsilon-free input, determinize only renumbers the
accessible states in BFS order when its input is already deterministic
(with finite arc weights), and connect returns a copy with the same
numbering when it drops nothing. determinize, minimize and push_log are
checked wrappers around private cores; prepare() checks its input once
and chains the cores, handing each the topological order the stage
before it already knows. minimize, push_log and n_shortest_strings
share one shortest-distance pass (_potentials), differing only in the
semiring plus they hand it. The enumeration helpers at the bottom are
deliberately naive; they exist as oracles for the efficient code paths
and for desk-scale analysis.
"""

from __future__ import annotations

from collections import deque

from . import semiring
from .errors import (
    CyclicLatticeError,
    EpsilonArcError,
    EpsilonCycleError,
    NotCoaccessibleError,
    NotDeterministicError,
    PathCountError,
    SemiringError,
)
from .semiring import INF, STOCHASTIC_TOL
from .wfsa import EPS, Arc, Wfsa, _accessible, _coaccessible, _new, topological_order


def _require_acyclic(w: Wfsa, op: str) -> list[int]:
    order = topological_order(w)
    if order is None:
        raise CyclicLatticeError(f"{op} requires an acyclic lattice")
    return order


def _potentials(w: Wfsa, order: list[int], plus) -> list[float]:
    """Shortest distance from every state to the final states.

    The generic single-source algorithm (Mohri 2002) run backwards over a
    topological order: each state's potential is the plus-sum, over its
    arcs and its own final weight, of arc weight times the successor's
    potential. Semiring times is float addition; INF marks states that
    reach no final state.
    """
    potential = [INF] * w.num_states
    arcs, finals = w.arcs, w.finals
    for q in reversed(order):
        acc = finals.get(q, INF)
        for _, weight, dst in arcs[q]:
            acc = plus(acc, weight + potential[dst])
        potential[q] = acc
    return potential


def connect(w: Wfsa) -> Wfsa:
    """Drop states that are not both accessible and coaccessible.

    The initial state survives even when the language is empty, so the
    result is always a structurally valid automaton. When every state
    survives, the result is a copy with the input's numbering.
    """
    keep = _accessible(w) & _coaccessible(w)
    if len(keep) == w.num_states:
        return w.copy()
    keep.add(w.start)
    old_order = sorted(keep)
    renum = {old: new for new, old in enumerate(old_order)}
    out = Wfsa(w.semiring)
    out.start = renum[w.start]
    out.arcs = [[_new(Arc, (label, weight, renum[dst]))
                 for label, weight, dst in w.arcs[old] if dst in keep]
                for old in old_order]
    for old, weight in w.finals.items():
        if old in keep:
            out.finals[renum[old]] = weight
    return out


def rm_epsilon(w: Wfsa) -> Wfsa:
    """Remove epsilon arcs, preserving the weighted language exactly.

    Costs over parallel epsilon routes combine with the automaton's own
    addition (min for tropical, log_add for log), as do any parallel
    same-label arcs the rewrite creates. Epsilon cycles are rejected.
    The result is trimmed.
    """
    plus = semiring.plus_for(w.semiring)
    arcs, finals = w.arcs, w.finals
    # closure[q]: total epsilon cost from q to every state it can reach
    # through epsilon arcs alone, excluding q itself; all empty (one
    # shared dict, never written) when there is no epsilon arc.
    closure: list[dict[int, float]] = [{}] * w.num_states
    if w.has_epsilon():
        eps_only = Wfsa(w.semiring)
        eps_only.arcs = [[a for a in state_arcs if a[0] == EPS] for state_arcs in arcs]
        eps_order = topological_order(eps_only)
        if eps_order is None:
            raise EpsilonCycleError("epsilon cycle detected")
        for q in reversed(eps_order):
            acc: dict[int, float] = {}
            for _, weight, dst in eps_only.arcs[q]:
                step = {dst: weight}
                for far, cost in closure[dst].items():
                    step[far] = semiring.times(weight, cost)
                for state, cost in step.items():
                    acc[state] = plus(acc.get(state, INF), cost)
            closure[q] = acc

    out = Wfsa(w.semiring)
    out.ensure_state(w.num_states - 1)
    out.start = w.start
    for src in range(w.num_states):
        merged: dict[tuple[int, int], float] = {}
        reach = sorted(closure[src].items())
        for via, cost in [(src, semiring.ONE), *reach]:
            for label, weight, dst in arcs[via]:
                if label != EPS:
                    key = (label, dst)
                    merged[key] = plus(merged.get(key, INF), cost + weight)
        out.arcs[src] = [_new(Arc, (label, weight, dst))
                         for (label, dst), weight in sorted(merged.items())]
        final = finals.get(src, INF)
        for via, cost in reach:
            f = finals.get(via, INF)
            if f != INF:
                final = plus(final, cost + f)
        if final != INF:
            out.finals[src] = final
    return connect(out)


def determinize(w: Wfsa) -> Wfsa:
    """Weighted subset construction for acyclic epsilon-free acceptors.

    Subsets carry residual weights: an output arc takes the add-combined
    cost of all matching input arcs and each surviving input state keeps
    the leftover relative to that, so path weights are preserved while
    every string ends up with exactly one path. A tropical input keeps
    only the best path per string; a log-tagged input pools the mass of
    duplicate paths. Output arcs are sorted by label. Deterministic input
    whose arc weights are all finite takes a fast path with the same
    result: every subset is then one state with residual zero, so the
    construction only renumbers the accessible states in BFS order.
    """
    if w.has_epsilon():
        raise EpsilonArcError("determinize requires an epsilon-free lattice")
    return _determinize(w, _require_acyclic(w, "determinize"))[0]


def _determinize(w: Wfsa, order: list[int]) -> tuple[Wfsa, list[int]]:
    """determinize without its checks, for epsilon-free w with the
    topological order given. Also returns the result's topological
    order. An input with no states gives an empty automaton.

    The fast path detects determinism in its own pass. On the first
    repeated label out of a state, or the first infinite or NaN arc
    weight, it hands over to the subset construction: such a weight
    gives a NaN residual, and NaN subsets never compare equal, so the
    subset construction does more there than renumber.
    """
    if not w.num_states:
        return Wfsa(w.semiring), []
    arcs, finals = w.arcs, w.finals
    renum = [-1] * w.num_states
    renum[w.start] = 0
    visit = [w.start]          # input state of each output state; grows as BFS
    out = Wfsa(w.semiring)
    for q in visit:
        row = []
        prev = EPS
        for label, weight, dst in sorted(arcs[q]):
            if label == prev or not -INF < weight < INF:
                return _subsets(w, order)
            prev = label
            nid = renum[dst]
            if nid < 0:
                nid = renum[dst] = len(visit)
                visit.append(dst)
            # INF is the identity of both additions, so the subset
            # construction's plus(INF, 0.0 + weight) is 0.0 + weight
            row.append(_new(Arc, (label, 0.0 + weight, nid)))
        out.arcs.append(row)
    for q, f in finals.items():
        if renum[q] >= 0 and f != INF:
            out.finals[renum[q]] = 0.0 + f
    return out, [renum[q] for q in order if renum[q] >= 0]


def _subsets(w: Wfsa, order: list[int]) -> tuple[Wfsa, list[int]]:
    """The weighted subset construction of determinize, for any
    epsilon-free acyclic input with the topological order given. Also
    returns the result's topological order: subsets sorted by the
    smallest input position among their members, ties by subset id. An
    arc into a subset comes from a member of the source subset that
    precedes each of its targets, so it strictly raises that minimum."""
    plus = semiring.plus_for(w.semiring)
    arcs, finals = w.arcs, w.finals
    position = [0] * w.num_states
    for i, q in enumerate(order):
        position[q] = i

    out = Wfsa(w.semiring)
    out.add_state()
    out.start = 0
    start_key = ((w.start, 0.0),)
    index: dict[tuple, int] = {start_key: 0}
    first = [position[w.start]]    # smallest member position of each subset
    queue = deque([start_key])
    while queue:
        key = queue.popleft()
        sid = index[key]
        out_arcs = out.arcs[sid]

        final = INF
        for state, residual in key:
            f = finals.get(state, INF)
            if f != INF:
                final = plus(final, residual + f)
        if final != INF:
            out.finals[sid] = final

        by_label: dict[int, dict[int, float]] = {}
        for state, residual in key:
            for label, weight, dst in arcs[state]:
                dests = by_label.setdefault(label, {})
                dests[dst] = plus(dests.get(dst, INF), residual + weight)
        for label in sorted(by_label):
            dests = by_label[label]
            ordered = sorted(dests.items())
            total = INF
            for _, cost in ordered:
                total = plus(total, cost)
            new_key = tuple([(dst, cost - total) for dst, cost in ordered])
            nid = index.get(new_key)
            if nid is None:
                nid = out.add_state()
                index[new_key] = nid
                first.append(min(position[dst] for dst, _ in ordered))
                queue.append(new_key)
            out_arcs.append(_new(Arc, (label, total, nid)))
    return out, sorted(range(len(first)), key=first.__getitem__)  # stable: ties by id


def minimize(w: Wfsa) -> Wfsa:
    """Merge equivalent states of a deterministic acyclic acceptor.

    Weights are first pushed toward the initial state (canonical residuals,
    computed with the automaton's own addition), then states are merged
    bottom-up whenever they agree on final weight and on their full
    (label, weight, successor-class) arc signature. The leftover cost at
    the initial state is folded back onto its outgoing arcs and final
    weight so the weighted language is untouched.
    """
    if not w.is_deterministic():
        raise NotDeterministicError("minimize requires a deterministic lattice")
    order = _require_acyclic(w, "minimize")
    trimmed = connect(w)
    if not trimmed.finals:
        return trimmed
    if trimmed.num_states != w.num_states:
        order = topological_order(trimmed)
    return _minimize(trimmed, order)[0]


def _minimize(w: Wfsa, order: list[int]) -> tuple[Wfsa, list[int]]:
    """minimize without its checks, for a deterministic trimmed w with
    the topological order given. Also returns the result's topological
    order."""
    potential = _potentials(w, order, semiring.plus_for(w.semiring))
    start, fold = w.start, potential[w.start]
    # pushed arcs as (label, weight, dst) rows sorted by label, which is
    # unique per state; only the merged automaton gets Arc tuples
    rows = [sorted([(label, weight + potential[dst] - p, dst) for label, weight, dst in arcs])
            for arcs, p in zip(w.arcs, potential)]
    rows[start] = [(label, weight + fold, dst) for label, weight, dst in rows[start]]
    finals = {q: f - potential[q] for q, f in w.finals.items()}
    if start in finals:
        finals[start] += fold

    # a state is classed after its successors, so a new class id exceeds
    # the ids of every class it has an arc to
    klass = [0] * w.num_states
    by_signature: dict[tuple, int] = {}
    for q in reversed(order):
        signature = (
            finals.get(q, INF),
            tuple([(label, weight, klass[dst]) for label, weight, dst in rows[q]]),
        )
        found = by_signature.get(signature)
        if found is None:
            found = len(by_signature)
            by_signature[signature] = found
        klass[q] = found

    out = Wfsa(w.semiring)
    out_arcs = out.arcs
    out_arcs.append([])
    renum = {klass[start]: 0}
    queue = deque([start])
    while queue:
        rep = queue.popleft()
        sid = renum[klass[rep]]
        f = finals.get(rep, INF)
        if f != INF:
            out.finals[sid] = f
        row = out_arcs[sid]
        for label, weight, dst in rows[rep]:
            c = klass[dst]
            nid = renum.get(c)
            if nid is None:
                nid = renum[c] = len(out_arcs)
                out_arcs.append([])
                queue.append(dst)
            row.append(_new(Arc, (label, weight, nid)))
    # descending class ids are a topological order of the classes
    return out, [renum[c] for c in range(len(by_signature) - 1, -1, -1) if c in renum]


def push_log(w: Wfsa) -> tuple[Wfsa, float]:
    """Normalize an acyclic acceptor in the log semiring.

    Computes per-state potentials (the log-total mass of all suffixes,
    final weights included), moves them onto earlier arcs, and strips the
    grand total off the initial state. Returns the rewritten automaton,
    tagged log, plus that total; afterwards the costs out of each state
    are a proper conditional distribution and path costs sum to one.

    Every state must reach a final state, otherwise its potential is
    infinite and the rewrite is undefined.
    """
    return _push_log(w, _require_acyclic(w, "push_log"))


def _push_log(w: Wfsa, order: list[int]) -> tuple[Wfsa, float]:
    """push_log without its acyclicity check, for the topological order given."""
    potential = _potentials(w, order, semiring.log_add)
    if INF in potential:
        raise NotCoaccessibleError(
            f"state {potential.index(INF)} cannot reach a final state")
    # potentials move onto arcs: w + p[dst] - p[src], finals f - p[q]
    out = Wfsa(semiring.LOG)
    out.start = w.start
    out.arcs = [[_new(Arc, (label, weight + potential[dst] - p, dst))
                 for label, weight, dst in arcs]
                for arcs, p in zip(w.arcs, potential)]
    out.finals = {q: f - potential[q] for q, f in w.finals.items()}
    return out, potential[w.start] if w.num_states else 0.0


def check_stochastic(w: Wfsa, tol: float = STOCHASTIC_TOL) -> bool:
    """True when every accessible state's outgoing mass is 1 within tol.

    Mass is the log_add of all outgoing arc costs together with the
    state's final weight; stochastic means that total is 0 (= log 1).
    """
    log_add, arcs, finals = semiring.log_add, w.arcs, w.finals
    for q in _accessible(w):
        total = finals.get(q, INF)
        for _, weight, _ in arcs[q]:
            total = log_add(total, weight)
        if not abs(total) <= tol:
            return False
    return True


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


def n_shortest_strings(w: Wfsa, n: int) -> list[tuple[tuple[int, ...], float]]:
    """The n cheapest accepted strings of a deterministic acyclic acceptor.

    Determinism makes strings and paths interchangeable, so this is a
    best-first walk guided by exact suffix potentials; costs are treated
    additively whatever the semiring tag. Ties break toward the
    lexicographically smaller token sequence. Returns fewer than n pairs
    when the language is smaller.
    """
    import heapq

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
