"""Set-up probe: what every latbeam command does before its first
sentence. Usage: probe_setup.py SYMTAB [NGRAM_MODEL]; without a model it
builds the uniform scorer."""

import sys
from pathlib import Path

import latbeam.cli  # noqa: F401  (the import a command pays)
from latbeam.scorers import UniformScorer, load_ngram_model
from latbeam.wfsa import parse_symbols

symbols = parse_symbols(Path(sys.argv[1]).read_text(encoding="utf-8"))
if len(sys.argv) > 2:
    symbols.closed = False
    load_ngram_model(sys.argv[2], symbols)
else:
    UniformScorer(symbols.ids())
