"""Predictive posterior view of a prepared lattice.

prepare() runs the full preprocessing pipeline and wraps the result in a
PosteriorLattice: a deterministic acyclic acceptor, stochastic in the log
semiring, whose arc costs are negative conditional log-probabilities and
whose final weights hold the explicit stop mass of each state. Walking a
token prefix through it yields the lattice's left-to-right conditionals.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_left

from . import ops, semiring
from .errors import (CyclicLatticeError, EmptyLatticeError, NotDeterministicError,
                     NotStochasticError, SemiringError)
from .wfsa import EPS, Arc, Wfsa, topological_order

log = logging.getLogger(__name__)

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
    automaton's own Arc objects, in cost form: an arc's weight is the
    negative conditional log-probability of its label. raw_total records
    the weight stripped off the initial state during pushing, i.e. the
    negative log of the raw lattice's total mass.
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
        # increasing, none epsilon) and orders the lookup index
        rows: list[tuple[Arc, ...]] = [()] * n
        depth = [0] * n
        for q in reversed(order):
            row = tuple(sorted(inner.arcs[q]))
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
        self._final_logprob = final_logprob
        self._rows = rows
        self.depth = depth[inner.start]

    @property
    def start(self) -> int:
        return self.inner.start

    @property
    def num_states(self) -> int:
        return self.inner.num_states

    @property
    def vocabulary(self) -> set[int]:
        return {arc.label for row in self._rows for arc in row}

    def successors(self, state: int) -> tuple[Arc, ...]:
        """The state's outgoing arcs sorted by label; each weight is the
        negative conditional log-probability of its label."""
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
    lattice's mass) is logged and kept on the result as raw_total.

    The result equals push_log(minimize(determinize(rm_epsilon(raw)))) on
    the log-retagged input, but the input is checked once: one topological
    order after epsilon removal, and each later stage is handed what the
    stage before it established (epsilon-free, deterministic, trimmed,
    and its output's topological order). The PosteriorLattice
    still verifies the result in full.

    When stages is given, the wall-clock seconds of each of STAGES are
    added to it (epsilon removal is billed to determinization), so one
    dict can sum the timings of many calls.
    """
    if not raw.num_states:
        raise EmptyLatticeError("cannot prepare an empty lattice")
    work = raw.retagged(semiring.LOG)
    t0 = time.perf_counter()
    work = ops.rm_epsilon(work)
    if not work.finals:
        raise EmptyLatticeError("lattice accepts nothing")
    work, order = ops._determinize(work, ops._require_acyclic(work, "determinize"))
    t1 = time.perf_counter()
    work, order = ops._minimize(work, order)
    t2 = time.perf_counter()
    pushed, total = ops._push_log(work, order)
    t3 = time.perf_counter()
    if stages is not None:
        for name, seconds in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
            stages[name] = stages.get(name, 0.0) + seconds
    log.info("pushed lattice: discarded total weight %.6f", total)
    return PosteriorLattice(pushed, raw_total=total)
