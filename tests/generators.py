"""Seeded random inputs for the tests, and small accessors only tests use.

The generators take a random.Random or a seed, so the same seed always
yields the same lattice or scorer. random_acyclic_wfsa makes the raw
lattices that the exhaustive oracles in oracles.py judge the pipeline
and the decoder on; random_table_scorer gives each prefix of a prepared
lattice its own random distribution.
"""

from __future__ import annotations

import math
import random

from latbeam import semiring
from latbeam.scorers import Prediction, TableScorer
from latbeam.wfsa import SymbolTable, Wfsa


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_acyclic_wfsa(seed_or_rng, min_states: int = 5, max_states: int = 30,
                        n_labels: int = 8, extra_arcs: float = 1.2,
                        eps_fraction: float = 0.0,
                        cost_range: tuple[float, float] = (0.0, 10.0),
                        final_fraction: float = 0.15,
                        label_base: int = 1) -> Wfsa:
    """Random acyclic lattice with a guaranteed accepting backbone.

    States are topologically numbered and arcs only run forward, so the
    result is acyclic by construction; the chain 0 -> 1 -> ... -> n-1
    with a final last state keeps every state useful. extra_arcs scales
    how many additional forward arcs are sprinkled in, eps_fraction of
    which carry the epsilon label.
    """
    rng = _rng(seed_or_rng)
    n = rng.randint(min_states, max_states)
    lo, hi = cost_range
    labels = list(range(label_base, label_base + n_labels))
    w = Wfsa(semiring.TROPICAL)
    w.ensure_state(n - 1)
    for q in range(n - 1):
        w.add_arc(q, rng.choice(labels), rng.uniform(lo, hi), q + 1)
    w.set_final(n - 1, rng.uniform(lo, hi))
    for q in range(1, n - 1):
        if rng.random() < final_fraction:
            w.set_final(q, rng.uniform(lo, hi))
    for _ in range(int(extra_arcs * n)):
        src = rng.randrange(0, n - 1)
        dst = rng.randrange(src + 1, n)
        if eps_fraction and rng.random() < eps_fraction:
            label = 0
        else:
            label = rng.choice(labels)
        w.add_arc(src, label, rng.uniform(lo, hi), dst)
    return w


def lattice_prefixes(lattice, cap: int = 10 ** 5) -> set[tuple[int, ...]]:
    """Every token prefix a posterior lattice can produce, root included."""
    prefixes: set[tuple[int, ...]] = set()
    stack: list[tuple[int, tuple[int, ...]]] = [(lattice.start, ())]
    while stack:
        state, prefix = stack.pop()
        if prefix in prefixes:
            continue
        prefixes.add(prefix)
        if len(prefixes) > cap:
            raise ValueError("prefix cap exceeded")
        for label, _, dst in lattice.successors(state):
            stack.append((dst, prefix + (label,)))
    return prefixes


def random_table_scorer(seed_or_rng, vocab, prefixes) -> TableScorer:
    """Table scorer with a random proper distribution for each prefix."""
    rng = _rng(seed_or_rng)
    events = sorted(vocab) + ["unk", "eos"]
    rows = {}
    for prefix in sorted(prefixes):
        weights = [rng.uniform(0.05, 1.0) for _ in events]
        total = sum(weights)
        logprobs = [math.log(x / total) for x in weights]
        in_vocab = dict(zip(sorted(vocab), logprobs[:-2]))
        rows[tuple(prefix)] = Prediction(in_vocab, logprobs[-2], logprobs[-1])
    return TableScorer(rows, vocab)


def vocabulary(lattice) -> set[int]:
    """Every label on an arc of a posterior lattice."""
    return {arc.label for q in range(lattice.num_states) for arc in lattice.successors(q)}


def symbols_from_tokens(tokens) -> SymbolTable:
    """An open symbol table holding tokens in order, ids from 1."""
    table = SymbolTable()
    for tok in tokens:
        table.add(tok)
    return table


def iter_arcs(w: Wfsa):
    """(source state, Arc) for every arc of w, by source state."""
    for src, arcs in enumerate(w.arcs):
        for arc in arcs:
            yield src, arc
