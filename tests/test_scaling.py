"""Call counts that grow linearly with the input.

Each path runs on one demo set and on that set repeated twice. Repeated
sentences cost the same calls again, so the second count is twice the
first less the fixed costs, which are counted once: a cost that grows
faster than the input pushes it above twice the first. Calls are counted
with sys.setprofile, as `call` (Python) and `c_call` (built-in) events,
which give the same counts on every run. Limit: a built-in call that is
itself linear, such as `x in list` or a slice, counts once, so a
quadratic cost hidden in one does not show here.
"""

import sys

import pytest

from latbeam.bleu import corpus_bleu, tune_grid
from latbeam.decoder import DecoderConfig, decode
from latbeam.posterior import prepare
from latbeam.scorers import UniformScorer
from latbeam.synth import build_demo


def count_calls(fn, *args, **kwargs) -> int:
    """The call and c_call events of fn(*args, **kwargs); the profile
    function in place before is restored."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.fixture(scope="module")
def demo_set():
    demo = build_demo(seed=13, n_sentences=12)
    lattices = [prepare(raw) for raw in demo.lattices]
    scorer = UniformScorer(set(demo.symbols.ids()))
    hyps = [decode(lat, scorer, DecoderConfig()).best.prefix for lat in lattices]
    return lattices, scorer, hyps, demo.references


def assert_linear(fn, make_args):
    """fn on the repeated set makes at most twice the calls it makes on
    the set, and fixed costs under 3% of them account for the rest."""
    fn(*make_args(1))   # first calls fill caches that later calls reuse
    once, twice = (count_calls(fn, *make_args(k)) for k in (1, 2))
    assert 0.97 * 2 * once <= twice <= 2 * once, (once, twice)


def test_corpus_bleu_calls_grow_linearly(demo_set):
    _, _, hyps, refs = demo_set
    assert_linear(corpus_bleu, lambda k: (hyps * k, refs * k))


def test_tune_grid_calls_grow_linearly(demo_set):
    lattices, scorer, _, refs = demo_set
    assert_linear(tune_grid, lambda k: (lattices * k, refs * k, scorer, [0.0, 0.5, 1.0]))

