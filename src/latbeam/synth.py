"""Synthetic lattices and corpora for tests, benchmarks and the demo set.

All generators are driven by a caller-supplied random.Random (or seed),
so the same seed always yields byte-identical data. The demo set is what
the command line and the acceptance checks exercise end to end: a small
shared vocabulary, one raw lattice per sentence built around a reference
path, and a training corpus for the n-gram scorer drawn from the same
distribution as the references.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from . import semiring
from .scorers import Prediction, TableScorer
from .wfsa import SymbolTable, Wfsa, format_symbols, serialize_wfsa


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


@dataclass(slots=True)
class DemoSet:
    symbols: SymbolTable
    lattices: list[Wfsa]
    references: list[list[int]]
    train_corpus: list[list[int]]
    ids: list[str]


def _markov_sentence(rng: random.Random, words: list[int], length: int) -> list[int]:
    # a crude bigram-ish process: prefer a handful of followers per word
    # so the n-gram scorer has structure to learn
    sent = [words[rng.randrange(8)]]
    while len(sent) < length:
        prev = sent[-1]
        bucket = (prev * 7) % len(words)
        if rng.random() < 0.7:
            sent.append(words[(bucket + rng.randrange(4)) % len(words)])
        else:
            sent.append(words[rng.randrange(len(words))])
    return sent


def build_demo(seed: int = 13, n_sentences: int = 50,
               n_train: int = 200) -> DemoSet:
    """Deterministic demo set: lattices, references, training corpus.

    Each lattice embeds its reference as a low-cost backbone and adds
    distractor tokens, two-token detours, skip arcs and the occasional
    epsilon shortcut, which keeps languages in the hundreds of strings
    while states stay between 5 and 50. A slice of the vocabulary never
    appears in the training corpus, so those lattice tokens are unknown
    words to any scorer trained on it.
    """
    rng = random.Random(seed)
    symbols = SymbolTable()
    common = [symbols.add(f"w{i:02d}") for i in range(40)]
    rare = [symbols.add(f"x{i:02d}") for i in range(10)]

    references = []
    lattices = []
    ids = []
    for index in range(n_sentences):
        length = rng.randint(8, 14)
        ref = _markov_sentence(rng, common, length)
        references.append(ref)
        ids.append(f"{index:03d}")

        w = Wfsa(semiring.TROPICAL)
        w.ensure_state(length)
        for pos, token in enumerate(ref):
            w.add_arc(pos, token, rng.uniform(0.0, 1.5), pos + 1)
        w.set_final(length, 0.0)
        budget = 50 - (length + 1)
        for pos in range(length):
            if rng.random() < 0.7:
                for _ in range(rng.randint(1, 2)):
                    pool = rare if rng.random() < 0.25 else common
                    w.add_arc(pos, rng.choice(pool), rng.uniform(0.3, 4.0), pos + 1)
            if pos + 2 <= length and rng.random() < 0.15:
                w.add_arc(pos, rng.choice(common), rng.uniform(0.5, 4.5), pos + 2)
            if rng.random() < 0.10:
                w.add_arc(pos, 0, rng.uniform(0.5, 3.0), pos + 1)
            if budget > 0 and rng.random() < 0.25:
                mid = w.add_state()
                budget -= 1
                w.add_arc(pos, rng.choice(common), rng.uniform(0.4, 3.5), mid)
                w.add_arc(mid, rng.choice(common), rng.uniform(0.4, 3.5), pos + 1)
        lattices.append(w)

    train_corpus = []
    for _ in range(n_train):
        train_corpus.append(_markov_sentence(rng, common, rng.randint(6, 14)))

    return DemoSet(symbols, lattices, references, train_corpus, ids)


def sausage_lattice(n_positions: int, seed: int = 7, n_labels: int = 40,
                    branches: int = 2) -> Wfsa:
    """Long confusion-network-style lattice for performance checks.

    n_positions slots, each with a few parallel arcs; states number
    n_positions + 1.
    """
    rng = random.Random(seed)
    w = Wfsa(semiring.TROPICAL)
    w.ensure_state(n_positions)
    for pos in range(n_positions):
        seen = set()
        for _ in range(branches):
            label = rng.randint(1, n_labels)
            if label in seen:
                continue
            seen.add(label)
            w.add_arc(pos, label, rng.uniform(0.0, 5.0), pos + 1)
    w.set_final(n_positions, 0.0)
    return w


def write_demo(demo: DemoSet, outdir) -> None:
    """Materialize a demo set: symtab.txt, refs.txt, train.txt, lattices/."""
    out = Path(outdir)
    (out / "lattices").mkdir(parents=True, exist_ok=True)
    (out / "symtab.txt").write_text(format_symbols(demo.symbols), encoding="utf-8")
    with open(out / "refs.txt", "w", encoding="utf-8") as fh:
        for ref in demo.references:
            fh.write(" ".join(demo.symbols.sym_of(t) for t in ref) + "\n")
    with open(out / "train.txt", "w", encoding="utf-8") as fh:
        for sent in demo.train_corpus:
            fh.write(" ".join(demo.symbols.sym_of(t) for t in sent) + "\n")
    for ident, lattice in zip(demo.ids, demo.lattices):
        path = out / "lattices" / f"{ident}.lat"
        path.write_text(serialize_wfsa(lattice, demo.symbols), encoding="utf-8")
