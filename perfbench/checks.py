"""Outside checks on the command line's outputs.

Each check reads what a command wrote and returns how many of its
operations (sentences, or lists for rescore) it rejects.
"""

from __future__ import annotations

import json

from latbeam import semiring
from latbeam.bleu import corpus_bleu
from latbeam.errors import LatbeamError
from latbeam.posterior import REJECT, PosteriorLattice
from latbeam.wfsa import parse_symbols, parse_wfsa


def pushed(corpus):
    """Read every pushed lattice back from disk and verify it as a
    posterior. Returns (failed, lattices by id, symbol table)."""
    symbols = parse_symbols(corpus.symtab.read_text(encoding="utf-8"))
    lattices = {}
    for ident in corpus.ids:
        try:
            text = (corpus.pushed / f"{ident}.lat").read_text(encoding="utf-8")
            inner = parse_wfsa(text, symbols, semiring_tag=semiring.LOG)
            lattices[ident] = PosteriorLattice(inner)
        except (OSError, LatbeamError):
            pass
    return len(corpus.ids) - len(lattices), lattices, symbols


def decoded(hyp_path, corpus, lattices, symbols) -> int:
    """Every hypothesis must be a string its lattice accepts."""
    ids = sorted(corpus.ids)
    lines = hyp_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(ids):
        return len(ids)     # lines can no longer be matched to sentences
    failed = 0
    for ident, line in zip(ids, lines):
        try:
            tokens = [symbols.id_of(t) for t in line.split()]
        except LatbeamError:
            failed += 1
            continue
        lattice = lattices.get(ident)
        if lattice is None or lattice.accepted_logprob(tokens) is REJECT:
            failed += 1
    return failed


def nbest_lists(path, corpus) -> int:
    """Every sentence has a list of distinct entries whose
    log-probabilities never increase."""
    groups: dict[str, list] = {}
    bad = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = [p.strip() for p in line.split("|||")]
        try:
            groups.setdefault(parts[0], []).append((parts[1], float(parts[2])))
        except (IndexError, ValueError):
            bad.add(parts[0])
    failed = 0
    for ident in corpus.ids:
        entries = groups.get(ident)
        if not entries or ident in bad:
            failed += 1
            continue
        texts = [text for text, _ in entries]
        logprobs = [lp for _, lp in entries]
        if len(set(texts)) != len(texts) or any(
                b > a for a, b in zip(logprobs, logprobs[1:])):
            failed += 1
    return failed


def read_rescore_json(path) -> dict[str, tuple[list[str], float]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        out[record["id"]] = (record["tokens"], record["score"])
    return out


def rescore_agrees(ids, dfs: dict, naive: dict, full_lines: dict) -> int:
    """dfs and naive rescoring rank each sampled list the same way, and
    the sample's dfs result matches the full run's line for that list."""
    failed = 0
    for ident in ids:
        a, b = dfs.get(ident), naive.get(ident)
        if (a is None or b is None or a[0] != b[0]
                or abs(a[1] - b[1]) > 1e-9 * max(1.0, abs(a[1]))
                or full_lines.get(ident) != " ".join(a[0])):
            failed += 1
    return failed


def tuned(stdout: bytes, grid: list[float]) -> bool:
    """tune reports one BLEU in [0, 1] per grid point and picks one of them."""
    try:
        record = json.loads(stdout)
        history = record["history"]
        return ([lam for lam, _ in history] == grid
                and all(0.0 <= b <= 1.0 for _, b in history)
                and [record["lambda_lat"], record["bleu"]] in history)
    except (ValueError, KeyError, TypeError):
        return False


def bleu_value(stdout: bytes, hyp_path, refs_path) -> float | None:
    """The bleu command's score, if it equals corpus_bleu on the same files."""
    try:
        score = json.loads(stdout)["bleu"]
    except (ValueError, KeyError):
        return None
    hyps = [line.split() for line in hyp_path.read_text(encoding="utf-8").splitlines()]
    refs = [line.split() for line in refs_path.read_text(encoding="utf-8").splitlines()]
    return score if score == corpus_bleu(hyps, refs).score else None
