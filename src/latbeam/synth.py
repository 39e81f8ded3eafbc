"""The seeded demo set and the long sausage lattice.

Both generators take an integer seed, so the same seed always yields
byte-identical data. The demo set is what `latbeam demo` writes and what
the command line and the acceptance checks exercise end to end: a small
shared vocabulary, one raw lattice per sentence built around a reference
path, and a training corpus for the n-gram scorer drawn from the same
distribution as the references. sausage_lattice builds the long
confusion-network-style lattices that the performance checks prepare.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

from . import semiring
from .wfsa import SymbolTable, Wfsa, format_symbols, serialize_wfsa


class DemoSet(NamedTuple):
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
