"""Seeded inputs for the benchmark workloads.

Every file the latbeam command line reads during a run is written here,
from the run's seed alone, before any timing starts. The program sees
only these files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from latbeam import semiring
from latbeam.synth import build_demo, sausage_lattice, write_demo
from latbeam.wfsa import SymbolTable, Wfsa, format_symbols, serialize_wfsa

NBEST = 100
TUNE_BEAM = 12
GRID = "0:2:0.25"
GRID_POINTS = [i * 0.25 for i in range(9)]

# Input sizes. "full" is what the benchmark measures; "tiny" only keeps
# the smoke test fast.
SIZES = {
    "full": {"demo": 400, "companion": 50, "sausage": 20_000, "lattice": 10_000},
    "tiny": {"demo": 12, "companion": 6, "sausage": 300, "lattice": 150},
}


@dataclass(slots=True)
class Corpus:
    """One set of lattices as the command line sees it."""

    symtab: Path
    raw: Path           # raw lattices, input to push
    pushed: Path        # where push writes, input to decode/nbest/tune
    refs: Path          # one reference per lattice, in file-name order
    scorer: tuple[str, ...]   # scorer flags for decode/rescore/tune
    ids: list[str]


@dataclass(slots=True)
class Plan:
    """What a workload runs: push, decode and bleu on main; nbest,
    rescore and tune on tail (main itself except on long-lattice).
    With check_workers > 0, push, decode and nbest also run once, untimed,
    with that many workers and must reproduce the serial payloads."""

    main: Corpus
    tail: Corpus
    beam: int
    check_workers: int


def _demo(seed: int, n: int, root: Path, train) -> Corpus:
    demo = build_demo(seed=seed, n_sentences=n)
    write_demo(demo, root)
    model = root / "model.txt"
    train(root / "train.txt", root / "symtab.txt", model)
    return Corpus(root / "symtab.txt", root / "lattices", root / "pushed",
                  root / "refs.txt", ("--scorer", "ngram", "--model", str(model)),
                  list(demo.ids))


def _two_arc_lattice(n_states: int, rng: random.Random) -> Wfsa:
    # the lattice of acceptance criterion 12: two arcs per position
    w = Wfsa(semiring.TROPICAL)
    w.ensure_state(n_states - 1)
    for q in range(n_states - 1):
        w.add_arc(q, rng.randint(1, 20), rng.uniform(0.0, 2.0), q + 1)
        w.add_arc(q, rng.randint(1, 20), rng.uniform(0.0, 2.0), q + 1)
    w.set_final(n_states - 1, 0.0)
    return w


def _long(seed: int, size: dict, root: Path) -> Corpus:
    symbols = SymbolTable()
    for i in range(1, 41):
        symbols.add(f"t{i:02d}")
    lattices = {
        "lattice": _two_arc_lattice(size["lattice"], random.Random(seed + 1)),
        "sausage": sausage_lattice(size["sausage"], seed=seed),
    }
    (root / "lattices").mkdir(parents=True)
    (root / "symtab.txt").write_text(format_symbols(symbols), encoding="utf-8")
    refs = []
    for ident, w in sorted(lattices.items()):
        (root / "lattices" / f"{ident}.lat").write_text(
            serialize_wfsa(w, symbols), encoding="utf-8")
        # reference: the first arc drawn at each position, a backbone
        # like the one the demo set builds its lattices around
        refs.append(" ".join(symbols.sym_of(w.arcs_from(q)[0].label)
                             for q in range(w.num_states - 1)))
    (root / "refs.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
    return Corpus(root / "symtab.txt", root / "lattices", root / "pushed",
                  root / "refs.txt", ("--scorer", "uniform"), sorted(lattices))


def build(name: str, seed: int, size: str, work: Path, train, push) -> Plan:
    """Write the inputs of workload name under work.

    train(corpus, symtab, out) and push(corpus) run the command line
    once each, untimed: the n-gram model and the long-lattice companion
    set are inputs, not measured work.
    """
    sizes = SIZES[size]
    if name == "demo-serial":
        main = _demo(seed, sizes["demo"], work / "demo", train)
        return Plan(main, main, beam=64, check_workers=2)
    if name == "long-lattice":
        main = _long(seed, sizes, work / "long")
        # nbest on a 20k-position lattice exhausts memory and rescore
        # --mode dfs recurses once per token, so the list-based commands
        # run on a small demo set at the command line's default size
        tail = _demo(seed, sizes["companion"], work / "companion", train)
        push(tail)
        return Plan(main, tail, beam=2, check_workers=0)
    raise ValueError(f"unknown workload {name!r}")
