"""Algorithms over acyclic weighted acceptors.

Ownership: no public function here changes its argument; each returns a
new Wfsa, with row lists of its own, which may share the argument's Arc
objects (Arcs are immutable). The private cores own their input
instead, and prepare() owns its intermediates and hands them over.
_rm_epsilon sorts in place each row that merging would give back as it
is (no repeated (label, dst), and every weight finite and not -0.0,
since the stage writes 0.0 + weight) and makes that list a row of its
result. _minimize and _push_log rewrite every weight and empty the
rows of their input: _push_log each row once it has rewritten it,
_minimize each row once it has built that state's signature, from
which, one per class, it builds its result. rm_epsilon hands its core a
copy (Wfsa.copy), minimize and push_log a list of rows of their own
(_shallow); determinize always builds a new automaton. rm_epsilon puts
the input's own Arc into its output wherever it comes out unchanged.

The operations compose into the standard preprocessing pipeline

    rm_epsilon -> determinize -> minimize -> push_log

which posterior.prepare() runs to turn an unnormalized lattice into a
deterministic acceptor whose arc weights are negative conditional
log-probabilities. Arcs are Arc NamedTuples that unpack as
(label, weight, dst); the loops here unpack them rather than read
attributes. Each stage writes its output arcs once, straight into the
arc lists, and skips work its input does not need: rm_epsilon builds
no closure for epsilon-free input, where it only merges parallel arcs
and drops arcs of infinite cost; and the trim returns its input when
it drops nothing. prepare() runs no subset construction on a lattice
that is deterministic once epsilons are removed: minimize numbers its
classes in BFS order and reads arcs in label order, so the numbering of
its input never reaches its output. There is one trim (_connect),
shared by connect, rm_epsilon (on its output), minimize (on its input)
and so prepare(): it marks accessible and coaccessible states in
bytearrays, which works on cyclic input, and renumbers the kept states
in ascending order. rm_epsilon, determinize (_subsets), minimize and
push_log are wrappers around private cores, the last three checked;
prepare() checks its input once and chains the cores, handing each the
topological order the stage before it already knows. minimize,
push_log and n_shortest_strings share one shortest-distance pass
(_potentials), differing only in the semiring plus they hand it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heappushpop
from itertools import compress, count
from math import copysign
from operator import itemgetter

from . import semiring
from .errors import (
    CyclicLatticeError,
    EpsilonArcError,
    EpsilonCycleError,
    NotCoaccessibleError,
    NotDeterministicError,
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


def _shallow(w: Wfsa) -> Wfsa:
    """w with a list of rows of its own, for a core that empties the
    rows it has read; rows, arcs and final weights stay shared."""
    out = Wfsa(w.semiring)
    out.start = w.start
    out.arcs = list(w.arcs)
    out.finals = w.finals
    return out


def connect(w: Wfsa) -> Wfsa:
    """Drop states that are not both accessible and coaccessible.

    The initial state survives even when the language is empty, so the
    result is always a structurally valid automaton. When every state
    survives, the result is a copy with the input's numbering.
    """
    trimmed = _connect(w)
    return w.copy() if trimmed is w else trimmed


def _connect(w: Wfsa) -> Wfsa:
    """connect, but w itself when every state survives. The kept states
    are renumbered densely in ascending order of their ids."""
    accessible, coaccessible = _accessible(w), _coaccessible(w)
    keep = [q for q in range(w.num_states) if accessible[q] and coaccessible[q]]
    if len(keep) == w.num_states:
        return w
    # a coaccessible start keeps itself; otherwise no state is kept, the
    # language is empty and the start stays alone
    keep = keep or [w.start]
    renum = [-1] * w.num_states
    for new, old in enumerate(keep):
        renum[old] = new
    out = Wfsa(w.semiring)
    out.start = renum[w.start]
    # an arc whose dst keeps its number stays the input's own Arc
    out.arcs = [[arc if renum[dst] == dst else _new(Arc, (label, weight, renum[dst]))
                 for arc in w.arcs[old] for label, weight, dst in (arc,)
                 if renum[dst] >= 0]
                for old in keep]
    out.finals = {renum[q]: f for q, f in w.finals.items() if renum[q] >= 0}
    return out


def _as_is(weight: float) -> bool:
    """Whether a stage that writes 0.0 + weight writes weight itself, and
    it is finite: every weight but -0.0, the infinities and NaN."""
    return -INF < weight < INF and (weight != 0.0 or copysign(1.0, weight) > 0.0)


def rm_epsilon(w: Wfsa) -> Wfsa:
    """Remove epsilon arcs, preserving the weighted language exactly.

    Costs over parallel epsilon routes combine with the automaton's own
    addition (min for tropical, log_add for log), as do any parallel
    same-label arcs the rewrite creates. Arcs of infinite cost carry no
    mass and are dropped. Epsilon cycles are rejected. The result is
    trimmed and shares no row list with w.
    """
    return _rm_epsilon(w.copy())


_LABEL_DST = itemgetter(0, 2)


def _rm_epsilon(w: Wfsa) -> Wfsa:
    """rm_epsilon on a w it owns: a row of w may be sorted in place and
    become a row of the result. That is each row of an epsilon-free
    state that repeats no (label, dst) and whose weights are all _as_is:
    merging it would give back its own arcs, in (label, dst) order.
    Every other row is merged into a new one."""
    plus = semiring.plus_for(w.semiring)
    arcs, finals = w.arcs, w.finals
    # closure[q]: total epsilon cost from q to every state it can reach
    # through epsilon arcs alone, excluding q itself; all empty (one
    # shared dict, never written) when there is no epsilon arc.
    closure: list[dict[int, float]] = [{}] * w.num_states
    if w.has_epsilon():
        eps_only = Wfsa(w.semiring)
        eps_only.arcs = [[a for a in state_arcs if a[0] == EPS] for state_arcs in arcs]
        arcs = [[a for a in state_arcs if a[0] != EPS] for state_arcs in arcs]  # real arcs
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
    out.start = w.start
    for src in range(w.num_states):
        row = arcs[src]
        reach = sorted(closure[src].items()) if closure[src] else ()
        if not reach:
            # stable, so the arcs of one (label, dst) keep the order their
            # costs add in, here and wherever another state reads this row
            row.sort(key=_LABEL_DST)
        if reach or not _merges_to_itself(row):
            row = _merged(row, reach, arcs, plus)
        out.arcs.append(row)
        final = finals.get(src, INF)
        for via, cost in reach:
            f = finals.get(via, INF)
            if f != INF:
                final = plus(final, cost + f)
        if final != INF:
            out.finals[src] = final
    return _connect(out)


def _merges_to_itself(row: list[Arc]) -> bool:
    """Whether a row sorted by (label, dst) repeats no (label, dst) and
    has only weights that are _as_is."""
    prev_label = prev_dst = -1
    for label, weight, dst in row:
        if label == prev_label and dst == prev_dst or not _as_is(weight):
            return False
        prev_label, prev_dst = label, dst
    return True


def _merged(row: list[Arc], reach, arcs: list[list[Arc]], plus) -> list[Arc]:
    """One arc of each (label, dst) out of a state, in (label, dst) order,
    from its direct arcs (row) and then, for each (via, epsilon cost) in
    reach, via's arcs at that cost. Parallel costs add with plus, and a
    key whose cost is infinite is dropped.

    INF is the identity of both additions, so the first arc of a key keeps
    its cost and only a parallel duplicate adds, and an infinite cost can
    be skipped. A direct arc's cost is 0.0 + weight, the input arc's own
    weight when it is _as_is, so the input Arc itself goes out unless a
    duplicate merges into it."""
    merged: dict[tuple[int, int], Arc] = {}
    for arc in row:
        label, weight, dst = arc
        if weight == INF:
            continue
        key = (label, dst)
        if key in merged:
            merged[key] = _new(Arc, (label, plus(merged[key][1], 0.0 + weight), dst))
        elif _as_is(weight):
            merged[key] = arc
        else:
            merged[key] = _new(Arc, (label, 0.0 + weight, dst))
    for via, cost in reach:
        for label, weight, dst in arcs[via]:
            total = cost + weight
            if total == INF:
                continue
            key = (label, dst)
            if key in merged:
                merged[key] = _new(Arc, (label, plus(merged[key][1], total), dst))
            else:
                merged[key] = _new(Arc, (label, total, dst))
    return [merged[key] for key in sorted(merged)]


def determinize(w: Wfsa) -> Wfsa:
    """Weighted subset construction for acyclic epsilon-free acceptors.

    Subsets carry residual weights: an output arc takes the add-combined
    cost of all matching input arcs and each surviving input state keeps
    the leftover relative to that, so path weights are preserved while
    every string ends up with exactly one path. A tropical input keeps
    only the best path per string; a log-tagged input pools the mass of
    duplicate paths. Output arcs are sorted by label, and the result is
    a new automaton even when the input is already deterministic. An
    input with no states gives an empty automaton.
    """
    if w.has_epsilon():
        raise EpsilonArcError("determinize requires an epsilon-free lattice")
    order = _require_acyclic(w, "determinize")
    return _subsets(w, order)[0] if w.num_states else Wfsa(w.semiring)


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
    trimmed = _connect(w)
    if not trimmed.finals:
        return trimmed.copy()
    if trimmed is w:
        trimmed = _shallow(w)
    else:
        order = topological_order(trimmed)
    return _minimize(trimmed, order)[0]


def _minimize(w: Wfsa, order: list[int]) -> tuple[Wfsa, list[int]]:
    """minimize without its checks, for a deterministic trimmed w with
    the topological order given. Also returns the result's topological
    order. w is consumed: each row is emptied once its state's
    signature is built. One signature is kept per class, and the result
    is built from those: their weights are the result's weights."""
    potential = _potentials(w, order, semiring.plus_for(w.semiring))
    arcs, start, fold = w.arcs, w.start, potential[w.start]
    finals = {q: f - potential[q] for q, f in w.finals.items()}
    if start in finals:
        finals[start] += fold

    # a state is classed after its successors, so a new class id exceeds
    # the ids of every class it has an arc to; arcs are sorted by label,
    # which is unique per state. A signature is one flat tuple,
    # (final, label, weight, class, label, weight, class, ...).
    klass = [0] * w.num_states
    by_signature: dict[tuple, int] = {}
    signatures: list[tuple] = []    # signatures[c]: class c's signature
    for q in reversed(order):
        p = potential[q]
        signature = [finals.get(q, INF)]
        for label, weight, dst in sorted(arcs[q]):
            signature += label, weight + potential[dst] - p, klass[dst]
        arcs[q] = ()
        if q == start:
            signature[2::3] = [weight + fold for weight in signature[2::3]]
        signature = tuple(signature)
        c = klass[q] = by_signature.setdefault(signature, len(signatures))
        if c == len(signatures):
            signatures.append(signature)
    first = klass[start]
    del by_signature, klass, potential, finals

    # classes numbered in BFS order from the start's, arcs in label order
    out = Wfsa(w.semiring)
    out_arcs = out.arcs
    out_arcs.append([])
    renum = [-1] * len(signatures)
    renum[first] = 0
    queue = deque([first])
    while queue:
        c = queue.popleft()
        signature, signatures[c] = signatures[c], ()
        sid = renum[c]
        if signature[0] != INF:
            out.finals[sid] = signature[0]
        row = out_arcs[sid]
        for label, weight, target in zip(signature[1::3], signature[2::3], signature[3::3]):
            nid = renum[target]
            if nid < 0:
                nid = renum[target] = len(out_arcs)
                out_arcs.append([])
                queue.append(target)
            row.append(_new(Arc, (label, weight, nid)))
    # descending class ids are a topological order of the classes
    return out, [nid for nid in reversed(renum) if nid >= 0]


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
    return _push_log(_shallow(w), _require_acyclic(w, "push_log"))


def _push_log(w: Wfsa, order: list[int]) -> tuple[Wfsa, float]:
    """push_log without its acyclicity check, for the topological order
    given. w is consumed: each row is emptied once it is rewritten."""
    potential = _potentials(w, order, semiring.log_add)
    if INF in potential:
        raise NotCoaccessibleError(
            f"state {potential.index(INF)} cannot reach a final state")
    # potentials move onto arcs: w + p[dst] - p[src], finals f - p[q]
    out = Wfsa(semiring.LOG)
    out.start = w.start
    rows = w.arcs
    for q, p in enumerate(potential):
        out.arcs.append([_new(Arc, (label, weight + potential[dst] - p, dst))
                         for label, weight, dst in rows[q]])
        rows[q] = ()
    out.finals = {q: f - potential[q] for q, f in w.finals.items()}
    return out, potential[w.start] if w.num_states else 0.0


def check_stochastic(w: Wfsa, tol: float = STOCHASTIC_TOL) -> bool:
    """True when every accessible state's outgoing mass is 1 within tol.

    Mass is the log_add of all outgoing arc costs together with the
    state's final weight; stochastic means that total is 0 (= log 1).
    """
    log_add, arcs, finals = semiring.log_add, w.arcs, w.finals
    for q in compress(range(w.num_states), _accessible(w)):
        total = finals.get(q, INF)
        for _, weight, _ in arcs[q]:
            total = log_add(total, weight)
        if not abs(total) <= tol:
            return False
    return True


def n_shortest_strings(w: Wfsa, n: int) -> list[tuple[tuple[int, ...], float]]:
    """The n cheapest accepted strings of a deterministic acyclic acceptor.

    Determinism makes strings and paths interchangeable, so this is a
    best-first walk guided by exact suffix potentials; costs are treated
    additively whatever the semiring tag. Ties break toward the
    lexicographically smaller token sequence. Returns fewer than n pairs
    when the language is smaller. Heap entries hold back-pointers, so
    memory grows with the length of the strings, not with its square.
    """
    if not w.is_deterministic():
        raise NotDeterministicError("n_shortest_strings requires a deterministic lattice")
    return _n_shortest(w, _require_acyclic(w, "n_shortest_strings"), n)


def _spell(node) -> tuple[int, ...]:
    """The labels of a back-pointer node, root first."""
    labels = []
    while node:
        node, label = node
        labels.append(label)
    labels.reverse()
    return tuple(labels)


def _n_shortest(w: Wfsa, order: list[int], n: int) -> list[tuple[tuple[int, ...], float]]:
    """n_shortest_strings without its checks, for a deterministic w with
    the topological order given.

    The search of Mohri and Riley (2002) with back-pointers: a heap entry
    is (bound, push counter, node, done, state, accumulated cost), where
    node is (parent node, label) and () at the root, so an entry costs
    the same whatever its depth and a string is spelled only when it is
    output. Entries pop in (bound, tokens, done) order. The counter
    keeps tuple comparison off the nodes; when the popped bound equals
    the heap top's, the whole tie group is popped, the entry with the
    smallest spelled (tokens, done) is taken and the rest go back. The
    cheapest entry an expansion makes enters the heap through
    heappushpop, which returns it at once when nothing queued is cheaper.
    """
    if not w.num_states or n <= 0:
        return []
    potential = _potentials(w, order, semiring.trop_add)
    if potential[w.start] == INF:
        return []

    arcs, finals = w.arcs, w.finals
    results: list[tuple[tuple[int, ...], float]] = []
    heap: list[tuple] = []
    tick = count(1)
    entry = (potential[w.start], 0, (), 0, w.start, 0.0)
    while True:
        bound = entry[0]
        if heap and heap[0][0] == bound:
            group = [entry]
            while heap and heap[0][0] == bound:
                group.append(heappop(heap))
            group.sort(key=lambda e: (_spell(e[2]), e[3]))
            entry = group.pop(0)
            for other in group:
                heappush(heap, other)
        _, _, node, done, state, acc = entry
        if done:
            results.append((_spell(node), acc))
            if len(results) == n or not heap:
                return results
            entry = heappop(heap)
            continue
        # the cheapest new entry is held back for heappushpop
        best = None
        f = finals.get(state, INF)
        if f != INF:
            best = (acc + f, next(tick), node, 1, -1, acc + f)
        for label, weight, dst in arcs[state]:
            p = potential[dst]
            if p == INF or weight == INF:
                continue
            cost = acc + weight
            child = (cost + p, next(tick), (node, label), 0, dst, cost)
            if best is None or child[0] < best[0]:
                if best is not None:
                    heappush(heap, best)
                best = child
            else:
                heappush(heap, child)
        if best is not None:
            entry = heappushpop(heap, best)
        elif heap:
            entry = heappop(heap)
        else:
            return results

