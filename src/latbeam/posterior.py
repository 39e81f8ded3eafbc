"""Predictive posterior view of a prepared lattice.

prepare() runs the full preprocessing pipeline and wraps the result in a
PosteriorLattice: a deterministic acyclic acceptor, stochastic in the log
semiring, whose arc costs are negative conditional log-probabilities and
whose final weights hold the explicit stop mass of each state. Walking a
token prefix through it yields the lattice's left-to-right conditionals.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_left
from collections.abc import Sequence

from . import ops, semiring
from .errors import (CyclicLatticeError, EmptyLatticeError, NotDeterministicError,
                     NotStochasticError, SemiringError)
from .wfsa import EPS, Arc, Wfsa, topological_order

NEG_INF = -math.inf

# the timed stages of prepare(), in pipeline order
STAGES = ("determinization", "minimization", "pushing")


class _Reject:
    """Marker for prefixes the lattice does not accept.

    Deliberately distinct from -inf: a rejected prefix is outside the
    model, not merely improbable.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "REJECT"


REJECT = _Reject()


class PosteriorLattice:
    """Deterministic stochastic acceptor with per-state token lookup.

    Construction verifies the contract (log semiring, acyclic,
    deterministic, stochastic within semiring.STOCHASTIC_TOL) and indexes
    each state's arcs by label for binary search. The index holds the
    automaton's own Arc objects: a row already sorted by label, as each
    row prepare() builds or latbeam push writes is, is used as it is;
    any other is copied into a sorted tuple, so the caller's rows are
    never sorted or changed. Arcs are in cost form: an arc's weight is
    the negative conditional log-probability of its label. raw_total
    records the weight stripped off the initial state during pushing,
    i.e. the negative log of the raw lattice's total mass. order is the
    topological order of the states that verification computed.
    """

    def __init__(self, inner: Wfsa, raw_total: float = 0.0):
        if inner.semiring != semiring.LOG:
            raise SemiringError("posterior lattice must be tagged log")
        if not inner.num_states:
            raise EmptyLatticeError("posterior lattice has no states")
        order = topological_order(inner)
        if order is None:
            raise CyclicLatticeError("posterior lattice must be acyclic")
        n = inner.num_states
        final_logprob = [NEG_INF] * n
        for q, f in inner.finals.items():
            final_logprob[q] = -f
        # one label sort per state checks determinism (labels strictly
        # increasing, none epsilon) and orders the lookup index; a row
        # already in that order is the index itself, any other a tuple
        rows: list[Sequence[Arc]] = [()] * n
        depth = [0] * n
        for q in reversed(order):
            row = inner.arcs[q]
            ordered = sorted(row)
            if not row or ordered != row:
                row = tuple(ordered)
            prev, d = EPS, 0
            for label, _, dst in row:
                if label == prev or label == EPS:
                    raise NotDeterministicError("posterior lattice must be deterministic")
                prev = label
                if depth[dst] >= d:
                    d = depth[dst] + 1
            depth[q] = d
            rows[q] = row
        if not ops.check_stochastic(inner):
            raise NotStochasticError(
                f"outgoing mass differs from 1 by more than {semiring.STOCHASTIC_TOL}")
        self.inner = inner
        self.raw_total = raw_total
        self.order = order
        self._final_logprob = final_logprob
        self._rows = rows
        self.depth = depth[inner.start]

    @property
    def start(self) -> int:
        return self.inner.start

    @property
    def num_states(self) -> int:
        return self.inner.num_states

    def successors(self, state: int) -> Sequence[Arc]:
        """The state's outgoing arcs sorted by label; each weight is the
        negative conditional log-probability of its label: the
        automaton's own row when it is already sorted, else a sorted
        tuple (() for no arcs). Callers must not change it."""
        return self._rows[state]

    def arc_for(self, state: int, token: int) -> Arc | None:
        row = self._rows[state]
        i = bisect_left(row, (token,))
        if i < len(row) and row[i].label == token:
            return row[i]
        return None

    def final_logprob(self, state: int) -> float:
        return self._final_logprob[state]

    def _walk(self, prefix) -> tuple[int | None, float]:
        """The state a prefix reaches and the prefix's conditional
        log-probability; None as the state when it leaves the lattice."""
        state, logprob = self.start, 0.0
        for token in prefix:
            arc = self.arc_for(state, token)
            if arc is None:
                return None, logprob
            logprob -= arc.weight
            state = arc.dst
        return state, logprob

    def walk(self, prefix) -> int | None:
        """Follow a token prefix from the start; None when it leaves the lattice."""
        return self._walk(prefix)[0]

    def prefix_logprob(self, prefix):
        """Total conditional log-probability of a prefix, or REJECT.

        The stop mass of the state reached is not included; add
        final_logprob(walk(prefix)) for the probability of the complete
        string.
        """
        state, logprob = self._walk(prefix)
        return REJECT if state is None else logprob

    def accepted_logprob(self, tokens):
        """Log-probability of a complete accepted string, or REJECT.

        REJECT covers both leaving the lattice and ending at a state with
        no stop mass.
        """
        state, logprob = self._walk(tokens)
        if state is None or self._final_logprob[state] == NEG_INF:
            return REJECT
        return logprob + self._final_logprob[state]


def prepare(raw: Wfsa, stages: dict | None = None) -> PosteriorLattice:
    """Full preprocessing pipeline: raw lattice in, posterior lattice out.

    The input costs are read as unnormalized log masses, so epsilon
    removal and determinization pool the probability of duplicate paths
    rather than keeping only the best one; pushing then normalizes the
    whole automaton. The stripped total (the negative log of the raw
    lattice's mass) is kept on the result as raw_total and logged at
    INFO to the latbeam.posterior logger when the program has imported
    logging; without that import no handler could show the record.

    The result equals push_log(minimize(determinize(rm_epsilon(raw)))) on
    the log-retagged input, but the input is checked once: one topological
    order after epsilon removal, which trims its output, and each later
    stage is handed what the stage before it established (epsilon-free,
    deterministic, trimmed, and its output's topological order). A cycle
    among the states the trim drops is therefore no error. The
    PosteriorLattice still verifies the result in full.

    About one automaton's arcs are alive at a time. raw is let go once
    its retagged copy exists (on CPython 3.11 and later it is freed
    after epsilon removal unless the caller keeps it). prepare owns
    that copy, so epsilon removal runs on it in place: each row that
    merging would give back as it is is sorted in place and becomes a
    row of its output, and every other arc that comes out unchanged
    goes into its output as it is. The subset construction runs only
    when that output is not deterministic; otherwise it goes to minimize
    as it is, whose output does not depend on how its input's states are
    numbered. On a long sausage no stage before minimize builds a second
    set of rows.
    Minimize and push rewrite every weight and empty the rows of
    their input as they go: minimize each row once its state's
    signature is built, before its result exists, and push each row
    once it is rewritten. Nothing of the minimized automaton is left
    when verification starts, and verification indexes the pushed rows
    in place.

    When stages is given, the wall-clock seconds of each of STAGES are
    added to it (epsilon removal is billed to determinization), so one
    dict can sum the timings of many calls.
    """
    if not raw.num_states:
        raise EmptyLatticeError("cannot prepare an empty lattice")
    work = raw.retagged(semiring.LOG)
    del raw
    t0 = time.perf_counter()
    work = ops._rm_epsilon(work)
    if not work.finals:
        raise EmptyLatticeError("lattice accepts nothing")
    order = ops._require_acyclic(work, "determinize")
    if not work.is_deterministic():
        work, order = ops._subsets(work, order)
    t1 = time.perf_counter()
    work, order = ops._minimize(work, order)
    t2 = time.perf_counter()
    pushed, total = ops._push_log(work, order)
    del work, order
    t3 = time.perf_counter()
    if stages is not None:
        for name, seconds in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
            stages[name] = stages.get(name, 0.0) + seconds
    # importing logging here would cost every command its start-up
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(
            "pushed lattice: discarded total weight %.6f", total)
    return PosteriorLattice(pushed, raw_total=total)
