"""Command line round trips on a small generated workspace."""

import concurrent.futures
import gc
import hashlib
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import latbeam
from latbeam import cli
from latbeam.bleu import corpus_bleu
from latbeam.cli import main
from latbeam.decoder import decode
from latbeam.posterior import PosteriorLattice
from latbeam.scorers import MAX_ORDER
from latbeam.synth import build_demo, write_demo
from latbeam.wfsa import parse_symbols, parse_wfsa
from latbeam import semiring


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Demo set plus pushed lattices and a trained bigram model."""
    root = tmp_path_factory.mktemp("ws")
    assert main(["demo", str(root), "--seed", "7", "--sentences", "6"]) == 0
    assert main(["push", str(root / "lattices"), str(root / "pushed"),
                 "--symtab", str(root / "symtab.txt")]) == 0
    assert main(["train", str(root / "train.txt"),
                 "--out", str(root / "model.txt"),
                 "--symtab", str(root / "symtab.txt"), "--order", "2"]) == 0
    return root


def run_python(*args, timeout=None):
    """Run a fresh interpreter with latbeam's source on its path."""
    src = str(Path(latbeam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=timeout)


def run_cli(*args, timeout=None):
    """Run the command line in a fresh interpreter, as a user would."""
    return run_python("-m", "latbeam.cli", *args, timeout=timeout)


def decode_args(ws, *extra):
    return ["decode", str(ws / "pushed"), "--symtab", str(ws / "symtab.txt"),
            "--scorer", "ngram", "--model", str(ws / "model.txt"), *extra]


class TestWorkspace:
    def test_demo_layout(self, ws):
        assert (ws / "symtab.txt").is_file()
        assert (ws / "refs.txt").is_file()
        assert (ws / "train.txt").is_file()
        assert len(list((ws / "lattices").glob("*.lat"))) == 6
        assert len((ws / "refs.txt").read_text().splitlines()) == 6

    def test_pushed_lattices_are_posteriors(self, ws):
        symbols = parse_symbols((ws / "symtab.txt").read_text())
        files = sorted((ws / "pushed").glob("*.lat"))
        assert len(files) == 6
        for f in files:
            inner = parse_wfsa(f.read_text(), symbols,
                               semiring_tag=semiring.LOG)
            PosteriorLattice(inner)

    def test_stats_json_rows(self, ws, capsys):
        assert main(["stats", str(ws / "lattices"),
                     "--symtab", str(ws / "symtab.txt"), "--json"]) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.splitlines()]
        assert [r["id"] for r in rows] == [f"{i:03d}" for i in range(6)]
        for r in rows:
            assert r["acyclic"] is True
            assert not r["empty"]
            assert r["states"] <= 50
            assert r["arcs_per_state"] > 0


class TestDecode:
    def test_json_records(self, ws, capsys):
        assert main(decode_args(ws, "--json")) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.splitlines()]
        assert [r["id"] for r in rows] == [f"{i:03d}" for i in range(6)]
        for r in rows:
            assert set(r) == {"id", "tokens", "score", "expansions"}
            assert r["score"] < 0.0
            assert r["expansions"] >= len(r["tokens"]) + 1
            assert all(isinstance(t, str) for t in r["tokens"])

    def test_text_matches_json(self, ws, capsys):
        assert main(decode_args(ws)) == 0
        captured = capsys.readouterr()
        text_lines = captured.out.splitlines()
        assert main(decode_args(ws, "--json")) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.splitlines()]
        assert text_lines == [" ".join(r["tokens"]) for r in rows]
        assert "mean node expansions" in captured.err

    def test_out_file_and_worker_byte_identity(self, ws, tmp_path):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(decode_args(ws, "--out", str(serial))) == 0
        assert main(decode_args(ws, "--out", str(parallel),
                                "--workers", "3")) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_push_worker_byte_identity(self, ws, tmp_path):
        out = tmp_path / "pushed2"
        assert main(["push", str(ws / "lattices"), str(out),
                     "--symtab", str(ws / "symtab.txt"),
                     "--workers", "3"]) == 0
        for f in sorted(out.glob("*.lat")):
            assert f.read_bytes() == (ws / "pushed" / f.name).read_bytes()

    def test_beam_sweep(self, ws, capsys):
        means = {}
        for beam in (1, 5, 12):
            assert main(decode_args(ws, "--json", "--beam",
                                    str(beam))) == 0
            rows = [json.loads(line) for line in
                    capsys.readouterr().out.splitlines()]
            assert len(rows) == 6
            means[beam] = sum(r["score"] for r in rows) / len(rows)
        assert means[12] >= means[5] - 1e-9
        assert means[5] >= means[1] - 1e-9

    def test_local_softmax_flag_runs(self, ws, capsys):
        assert main(decode_args(ws, "--json", "--local-softmax")) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.splitlines()]
        assert len(rows) == 6


class TestNbestRescore:
    def test_nbest_file_format(self, ws, tmp_path, capsys):
        out = tmp_path / "hyps.nbest"
        assert main(["nbest", str(ws / "pushed"),
                     "--symtab", str(ws / "symtab.txt"),
                     "--nbest", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        seen = {}
        for line in lines:
            ident, text, logprob = (p.strip() for p in line.split("|||"))
            assert text
            lp = float(logprob)
            assert lp <= 0.0
            assert lp <= seen.get(ident, 0.0) + 1e-12
            seen[ident] = lp
        assert sorted(seen) == [f"{i:03d}" for i in range(6)]

    def test_modes_agree_and_dfs_is_cheaper(self, ws, tmp_path, capsys):
        nbest = tmp_path / "hyps.nbest"
        assert main(["nbest", str(ws / "pushed"),
                     "--symtab", str(ws / "symtab.txt"),
                     "--nbest", "20", "--out", str(nbest)]) == 0
        capsys.readouterr()
        outputs = {}
        calls = {}
        for mode in ("naive", "dfs"):
            assert main(["rescore", str(nbest),
                         "--symtab", str(ws / "symtab.txt"),
                         "--scorer", "ngram",
                         "--model", str(ws / "model.txt"),
                         "--mode", mode]) == 0
            captured = capsys.readouterr()
            outputs[mode] = captured.out
            m = re.search(r"mean predict calls (\d+\.\d)", captured.err)
            assert m, captured.err
            calls[mode] = float(m.group(1))
        assert outputs["naive"] == outputs["dfs"]
        assert calls["dfs"] < calls["naive"]

    def test_rescore_json_fields(self, ws, tmp_path, capsys):
        nbest = tmp_path / "hyps.nbest"
        assert main(["nbest", str(ws / "pushed"),
                     "--symtab", str(ws / "symtab.txt"),
                     "--nbest", "5", "--out", str(nbest)]) == 0
        capsys.readouterr()
        assert main(["rescore", str(nbest),
                     "--symtab", str(ws / "symtab.txt"), "--json"]) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.splitlines()]
        assert len(rows) == 6
        for r in rows:
            assert set(r) == {"id", "tokens", "score", "predict_calls"}


@pytest.fixture(scope="module")
def nbest_file(ws, tmp_path_factory):
    path = tmp_path_factory.mktemp("nbest") / "hyps.nbest"
    assert main(["nbest", str(ws / "pushed"), "--symtab", str(ws / "symtab.txt"),
                 "--nbest", "20", "--out", str(path)]) == 0
    return path


class TestPinnedOutput:
    """Scored output pinned by digest of stdout and stderr, so a rewrite of
    the joint score that moves a float in the last place, or the sign of
    a zero, fails here."""

    @pytest.mark.parametrize("name, digest", [
        ("decode",
         "e923494fb5244160d10fbea99d4fc29ace18382ee1a2ad8f0aaee7f11c84cd1a"),
        ("decode_local_softmax",
         "cd668febfd956ac5b89f2d5e43110cd880a9bf3e2c563c6bd1c3bc8bd237ef19"),
        ("rescore_dfs",
         "6b8af312e3f9d57ca156d88cc7c510a35527a4ec66235653d5c01c96c686ef0d"),
        ("rescore_naive_lattice_only",
         "0dd78e2b6e9075a81fef1a1c90910fe0a085c941dcc4249487d4be38af1cdc80"),
        ("rescore_dfs_scorer_only",
         "e1cff4bfe8afc87c4895d8c19e8e98eb7f0f6ecd2c0837d677ce9a0cfd2eb49b"),
        ("tune",
         "aa399e3d22dde645f62727f32607079b9afaab19bcbd8573cfd445c9c66e6a45"),
        ("tune_local_softmax",
         "f1f9ab4038c7258aed9f5e980cf07ba761761356edca5c2e03fcc2e7a750ff42"),
    ])
    def test_json_bytes_unchanged(self, ws, nbest_file, capsys, name, digest):
        model = ["--symtab", str(ws / "symtab.txt"), "--scorer", "ngram",
                 "--model", str(ws / "model.txt"), "--json"]
        tune = ["tune", str(ws / "pushed"), str(ws / "refs.txt"), *model,
                "--grid", "0:1:0.5"]
        rescore = ["rescore", str(nbest_file), *model]
        argv = {
            "decode": ["decode", str(ws / "pushed"), *model],
            "decode_local_softmax": ["decode", str(ws / "pushed"), *model,
                                     "--local-softmax"],
            "rescore_dfs": rescore,
            "rescore_naive_lattice_only": [*rescore, "--mode", "naive",
                                           "--lambda-scorer", "0"],
            "rescore_dfs_scorer_only": [*rescore, "--lambda-lat", "0"],
            "tune": tune,
            "tune_local_softmax": [*tune, "--local-softmax"],
        }[name]
        assert main(argv) == 0
        captured = capsys.readouterr()
        h = hashlib.sha256(captured.out.encode())
        h.update(captured.err.encode())
        assert h.hexdigest() == digest


class TestRescoreContract:
    """rescore holds one list at a time in tuples, reads lists in any id
    order, and writes nothing unless every list passes."""

    def test_reader_keeps_few_bytes_per_token(self, ws, tmp_path):
        # the lists wait as array columns; tuples of ints took about 20
        # bytes a token
        symbols = parse_symbols((ws / "symtab.txt").read_text())
        words = [symbols.sym_of(i) for i in symbols.ids()]
        rng = random.Random(5)
        path = tmp_path / "big.nbest"
        n_tokens = 0
        with open(path, "w", encoding="utf-8") as fh:
            for ident in range(50):
                for rank in range(100):
                    # the first two tokens spell the rank: entries stay distinct
                    tokens = [words[rank % len(words)], words[rank // len(words)]]
                    tokens += rng.choices(words, k=rng.randint(4, 14))
                    n_tokens += len(tokens)
                    fh.write(f"{ident:03d} ||| {' '.join(tokens)} ||| {-0.01 * rank!r}\n")
        tracemalloc.start()
        try:
            lists = iter(cli._read_nbest_file(path, symbols))
            first = next(lists)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.source_id == "000" and len(first) == 100
        assert held / n_tokens < 8

    def test_reader_keeps_one_byte_per_id_below_256(self, tmp_path):
        # a table whose top id is 255 keeps its token ids in bytes
        words = [f"w{i:03d}" for i in range(1, 256)]
        symbols = parse_symbols("<eps> 0\n" + "".join(
            f"{w} {i}\n" for i, w in enumerate(words, start=1)))
        rng = random.Random(5)
        path = tmp_path / "big.nbest"
        n_tokens = 0
        with open(path, "w", encoding="utf-8") as fh:
            for ident in range(50):
                for rank in range(100):
                    tokens = [words[rank]] + rng.choices(words, k=rng.randint(4, 14))
                    n_tokens += len(tokens)
                    fh.write(f"{ident:03d} ||| {' '.join(tokens)} ||| {-0.01 * rank!r}\n")
        tracemalloc.start()
        try:
            lists = iter(cli._read_nbest_file(path, symbols))
            first = next(lists)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.source_id == "000" and len(first) == 100
        assert held / n_tokens < 3.5

    def test_id_column_width_does_not_change_output(self, ws, nbest_file, tmp_path,
                                                    capsys):
        # an unused top id of 255 keeps 8-bit token ids, one of 256 16-bit
        # ones; both read the same lists
        symtab = (ws / "symtab.txt").read_text()
        assert max(parse_symbols(symtab).ids()) < 255
        runs = {}
        for top in (255, 256):
            table = tmp_path / f"symtab{top}.txt"
            table.write_text(f"{symtab}unused {top}\n")
            for mode in ("dfs", "naive"):
                assert main(["rescore", str(nbest_file), "--symtab", str(table),
                             "--scorer", "ngram", "--model", str(ws / "model.txt"),
                             "--mode", mode]) == 0
                runs[top, mode] = capsys.readouterr().out
        assert runs[255, "dfs"]
        assert len(set(runs.values())) == 1

    def test_list_order_does_not_change_output(self, ws, nbest_file, tmp_path, capsys):
        lines = nbest_file.read_text().splitlines(keepends=True)
        # as `sort -s -k1,1r`: ids descending, each id's entries in file order
        reversed_file = tmp_path / "reversed.nbest"
        reversed_file.write_text("".join(sorted(
            lines, key=lambda line: line.split("|||")[0].strip(), reverse=True)))
        assert reversed_file.read_text() != nbest_file.read_text()
        model = ["--symtab", str(ws / "symtab.txt"), "--scorer", "ngram",
                 "--model", str(ws / "model.txt")]
        for flags in ([], ["--json", "--mode", "naive"]):
            runs = []
            for path in (nbest_file, reversed_file):
                out = tmp_path / "best.txt"
                assert main(["rescore", str(path), *model, *flags, "--out", str(out)]) == 0
                runs.append((out.read_bytes(), capsys.readouterr()))
            assert runs[0] == runs[1]
            assert runs[0][0].count(b"\n") == 6

    def test_bad_list_after_good_one_writes_nothing(self, ws, tmp_path):
        symbols = parse_symbols((ws / "symtab.txt").read_text())
        a, b = (symbols.sym_of(i) for i in symbols.ids()[:2])
        nbest = tmp_path / "bad.nbest"
        # 001 comes first in the file but is rescored after 000
        nbest.write_text(f"001 ||| {a} ||| -0.5\n001 ||| {a} ||| -0.7\n"
                         f"000 ||| {b} ||| -0.5\n")
        out = tmp_path / "best.txt"
        proc = run_cli("rescore", nbest, "--symtab", ws / "symtab.txt", "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"latbeam: {nbest}: list 001: duplicate")
        assert len(proc.stderr.splitlines()) == 1
        assert out.read_text() == ""

    def test_symbol_id_beyond_64_bits_is_one_line_error(self, tmp_path):
        # the id column is an array of at most 64 bits a token
        (tmp_path / "symtab.txt").write_text(f"<eps> 0\na 1\nbig {2**64}\n")
        nbest = tmp_path / "big.nbest"
        nbest.write_text("x ||| a ||| -0.5\nx ||| big ||| -0.9\n")
        proc = run_cli("rescore", nbest, "--symtab", tmp_path / "symtab.txt")
        assert proc.returncode == 1
        assert proc.stderr == f"latbeam: {nbest}: line 2: symbol id beyond 64 bits\n"

    def test_list_beyond_ends_column_is_one_line_error(self, ws, tmp_path, capsys,
                                                       monkeypatch):
        # the ends column holds 32 bits an entry; an 8-bit column stands in
        # for it here, so a list of 256 tokens overflows it as one of 2**32
        # tokens would overflow the real one
        monkeypatch.setattr(cli, "array",
                            lambda typecode: array("B" if typecode == "I" else typecode))
        symbols = parse_symbols((ws / "symtab.txt").read_text())
        word = symbols.sym_of(symbols.ids()[0])
        nbest = tmp_path / "long.nbest"
        nbest.write_text(f"x ||| {word} ||| -0.5\nx ||| {' '.join([word] * 255)} ||| -0.9\n")
        out = tmp_path / "best.txt"
        assert main(["rescore", str(nbest), "--symtab", str(ws / "symtab.txt"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"latbeam: {nbest}: line 2: list x beyond 2**32 - 1 tokens\n")
        assert out.read_text() == ""


class TestScoredPipelines:
    def test_bleu_command(self, ws, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        assert main(decode_args(ws, "--out", str(hyp))) == 0
        capsys.readouterr()
        assert main(["bleu", str(hyp), str(ws / "refs.txt")]) == 0
        line = capsys.readouterr().out
        assert line.startswith("bleu ")
        assert main(["bleu", str(hyp), str(ws / "refs.txt"),
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert 0.0 <= record["bleu"] <= 1.0
        assert len(record["precisions"]) == 4

    def test_sentences_hold_one_str_per_distinct_word(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("the cat sat\n\nthe  cat on the mat\n", encoding="utf-8")
        sents = cli._read_sentences(path)
        assert sents == [["the", "cat", "sat"], [], ["the", "cat", "on", "the", "mat"]]
        assert len({id(w) for sent in sents for w in sent}) == 5

    def test_tune_command(self, ws, capsys):
        assert main(["tune", str(ws / "pushed"), str(ws / "refs.txt"),
                     "--symtab", str(ws / "symtab.txt"),
                     "--scorer", "ngram", "--model", str(ws / "model.txt"),
                     "--grid", "0:1:0.5", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert [lam for lam, _ in record["history"]] == [0.0, 0.5, 1.0]
        assert record["bleu"] == max(s for _, s in record["history"])
        assert record["lambda_scorer"] == 1.0

    def test_tune_reference_word_no_lattice_holds(self, ws, tmp_path, capsys):
        refs = [line.split() for line in (ws / "refs.txt").read_text().splitlines()]
        refs[0].append("qqq")
        (tmp_path / "refs.txt").write_text("".join(" ".join(r) + "\n" for r in refs))
        done = run_cli("tune", ws / "pushed", tmp_path / "refs.txt",
                       "--symtab", ws / "symtab.txt", "--scorer", "ngram",
                       "--model", ws / "model.txt", "--grid", "1", "--json")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        # tune's one grid point decodes as decode does with its defaults
        assert main(decode_args(ws, "--json")) == 0
        hyps = [json.loads(line)["tokens"] for line in capsys.readouterr().out.splitlines()]
        assert json.loads(done.stdout)["bleu"] == corpus_bleu(hyps, refs).score

    def test_train_without_symtab(self, ws, tmp_path, capsys):
        model = tmp_path / "fresh.txt"
        assert main(["train", str(ws / "train.txt"),
                     "--out", str(model)]) == 0
        assert main(["decode", str(ws / "pushed"),
                     "--symtab", str(ws / "symtab.txt"),
                     "--scorer", "ngram", "--model", str(model),
                     "--json"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 6


class TestFailureModes:
    def test_malformed_lattice_fails_but_others_process(self, ws, tmp_path,
                                                        capsys):
        latdir = tmp_path / "lats"
        latdir.mkdir()
        for f in (ws / "lattices").glob("*.lat"):
            (latdir / f.name).write_bytes(f.read_bytes())
        (latdir / "broken.lat").write_text("not a lattice\n")
        out = tmp_path / "pushed"
        assert main(["push", str(latdir), str(out),
                     "--symtab", str(ws / "symtab.txt")]) == 1
        assert "broken" in capsys.readouterr().err
        assert len(list(out.glob("*.lat"))) == 6

    def test_empty_directory_is_an_error(self, ws, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["decode", str(empty),
                     "--symtab", str(ws / "symtab.txt")]) == 1
        assert "latbeam:" in capsys.readouterr().err

    def test_table_scorer_requires_model(self, ws, capsys):
        assert main(["decode", str(ws / "pushed"),
                     "--symtab", str(ws / "symtab.txt"),
                     "--scorer", "table"]) == 1
        assert "--model" in capsys.readouterr().err

    def test_bos_event_in_model_is_one_line_error(self, ws, tmp_path):
        # the four quarters sum to one, so only the <s> event is wrong
        word = parse_symbols((ws / "symtab.txt").read_text()).sym_of(1)
        quarter = repr(math.log(1 / 4))
        model = tmp_path / "bos.txt"
        model.write_text("".join(f"{event} {quarter} 0\n"
                                 for event in (word, "<unk>", "</s>", "<s>")))
        proc = run_cli("decode", ws / "pushed", "--symtab", ws / "symtab.txt",
                       "--scorer", "ngram", "--model", model)
        assert proc.returncode == 1
        assert proc.stderr == f"latbeam: {model}: line 4: <s> pads contexts, never an event\n"
        assert proc.stdout == ""

    def test_rescore_bad_nbest_list_is_one_line_error(self, ws, tmp_path):
        nbest = tmp_path / "bad.nbest"
        symbols = parse_symbols((ws / "symtab.txt").read_text())
        a, b = (symbols.sym_of(i) for i in symbols.ids()[:2])
        for body, reason, where in (
                (f"000 ||| {a} ||| -0.5\n000 ||| {a} ||| -0.7\n", "duplicate", "list 000"),
                (f"000 ||| {a} ||| -0.9\n000 ||| {b} ||| -0.2\n", "non-increasing",
                 "list 000"),
                (f"000 ||| {a} ||| -0.5\n000 ||| {b} ||| nan\n", "bad logprob", "line 2"),
                (f"000 ||| {a} ||| inf\n", "bad logprob", "line 1"),
                (f"000 ||| {a} ||| -0.5\n000 ||| {b} ||| -inf\n", "bad logprob", "line 2")):
            nbest.write_text(body)
            proc = run_cli("rescore", nbest, "--symtab", ws / "symtab.txt")
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("latbeam: ")
            assert len(proc.stderr.splitlines()) == 1
            assert reason in proc.stderr
            assert where in proc.stderr and str(nbest) in proc.stderr

    def test_tune_reference_count_mismatch_is_one_line_error(self, ws, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("".join((ws / "refs.txt").read_text().splitlines(True)[:-1]))
        proc = run_cli("tune", ws / "pushed", refs, "--symtab", ws / "symtab.txt",
                       "--grid", "1")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("latbeam: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("hyp_text, ref_text, reason", [
        ("a b\n", "a b\nc d\n", "1 hypotheses against 2 references"),
        ("", "", "empty corpus"),
    ])
    def test_bleu_unusable_corpus_is_one_line_error(self, tmp_path, hyp_text,
                                                    ref_text, reason):
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text(hyp_text)
        ref.write_text(ref_text)
        proc = run_cli("bleu", hyp, ref)
        assert proc.returncode == 1
        assert proc.stderr == f"latbeam: {reason}\n"
        assert proc.stdout == ""

    def test_push_unreachable_final_accepts_nothing(self, ws, tmp_path, capsys):
        latdir = tmp_path / "lats"
        latdir.mkdir()
        for f in (ws / "lattices").glob("*.lat"):
            (latdir / f.name).write_bytes(f.read_bytes())
        symbols = parse_symbols((ws / "symtab.txt").read_text())
        a, b = (symbols.sym_of(i) for i in symbols.ids()[:2])
        # the final state 3 hangs off state 2, which the start cannot reach
        (latdir / "orphan.lat").write_text(f"0 1 {a} 0.5\n2 3 {b} 0.5\n3 0\n")
        out = tmp_path / "pushed"
        assert main(["push", str(latdir), str(out),
                     "--symtab", str(ws / "symtab.txt")]) == 1
        assert "orphan: lattice accepts nothing" in capsys.readouterr().err
        assert len(list(out.glob("*.lat"))) == 6

    @pytest.mark.parametrize("command, flags", [
        ("decode", ["--beam", "0"]),
        ("decode", ["--lambda-lat", "-1"]),
        ("tune", ["--beam", "0"]),
        ("tune", ["--grid=-1:0:1"]),
        ("tune", ["--grid", "a"]),
        ("tune", ["--grid", "0:x:1"]),
        # a non-finite grid must not loop forever, hence the timeout
        ("tune", ["--grid", "0:inf:1"]),
        ("tune", ["--grid", "0:nan:1"]),
        ("tune", ["--grid", "0:1:nan"]),
        ("tune", ["--grid", "inf"]),
        ("decode", ["--lambda-lat", "inf"]),
    ])
    def test_invalid_decoder_setting_is_one_line_error(self, ws, command, flags):
        args = [command, ws / "pushed"]
        if command == "tune":
            args.append(ws / "refs.txt")
        proc = run_cli(*args, "--symtab", ws / "symtab.txt", *flags, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("latbeam: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("grid, reason", [
        ("0:1e12:1", "more than 10000 points"),
        ("0:1e-9:1e-11", "step too small for values rounded to 10 decimals"),
        ("1:0:1", "stop is below start"),
    ])
    def test_unusable_grid_fails_before_any_decode(self, ws, grid, reason):
        # the grid is counted before it is built, so even a huge one
        # fails at once
        proc = run_cli("tune", ws / "pushed", ws / "refs.txt",
                       "--symtab", ws / "symtab.txt", "--grid", grid, timeout=10)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"latbeam: bad grid {grid!r}, {reason}\n"

    def test_grid_ends_at_stop(self, ws):
        proc = run_cli("tune", ws / "pushed", ws / "refs.txt",
                       "--symtab", ws / "symtab.txt", "--grid", "0:1e-9:1e-10",
                       "--json", timeout=60)
        assert proc.returncode == 0, proc.stderr
        lams = [lam for lam, _ in json.loads(proc.stdout)["history"]]
        assert len(lams) == 11
        assert lams[0] == 0.0 and lams[-1] == 1e-9

    @pytest.mark.parametrize("flags", [
        pytest.param(["--order", "0"], id="order-0"),
        pytest.param(["--order", "1000000"], id="order-above-cap"),
        pytest.param(["--k", "0"], id="k-0"),
        pytest.param(["--k", "nan"], id="k-nan"),
        pytest.param(["--smoothing", "stupid-backoff", "--alpha", "0"], id="alpha-0"),
        pytest.param(["--smoothing", "stupid-backoff", "--alpha", "-1"], id="alpha-negative"),
        pytest.param(None, id="empty-corpus"),
    ])
    def test_train_invalid_setting_is_one_line_error(self, ws, tmp_path, flags):
        corpus = ws / "train.txt"
        if flags is None:
            corpus = tmp_path / "empty.txt"
            corpus.write_text("")
            flags = []
        out = tmp_path / "model.txt"
        proc = run_cli("train", corpus, "--out", out, "--symtab", ws / "symtab.txt", *flags)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("latbeam: ")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    def test_train_help_names_order_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        assert f"1 to {MAX_ORDER}" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("lambdas", [("-1", "0"), ("0", "0"), ("inf", "1")])
    def test_rescore_invalid_lambdas_is_one_line_error(self, ws, tmp_path, capsys,
                                                        lambdas):
        nbest = tmp_path / "hyps.nbest"
        assert main(["nbest", str(ws / "pushed"), "--symtab", str(ws / "symtab.txt"),
                     "--nbest", "5", "--out", str(nbest)]) == 0
        capsys.readouterr()
        proc = run_cli("rescore", nbest, "--symtab", ws / "symtab.txt",
                       "--lambda-lat", lambdas[0], "--lambda-scorer", lambdas[1])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("latbeam: ")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("case", ["symtab", "model", "refs", "out", "undecodable"])
    def test_file_error_is_one_line(self, ws, tmp_path, case):
        missing = tmp_path / "missing.txt"
        symtab, model, refs = ws / "symtab.txt", ws / "model.txt", ws / "refs.txt"
        out = tmp_path / "hyp.txt"
        reason = "No such file or directory"
        if case == "symtab":
            symtab = bad = missing
        elif case == "model":
            model = bad = missing
        elif case == "refs":
            refs = bad = missing
        elif case == "out":
            out = bad = tmp_path / "nodir" / "hyp.txt"
        else:
            symtab = bad = tmp_path / "latin1.txt"
            bad.write_bytes("<eps> 0\ncaf\xe9 1\n".encode("latin-1"))
            reason = "can't decode"
        if case == "refs":
            args = ["tune", ws / "pushed", refs, "--grid", "1"]
        else:
            args = ["decode", ws / "pushed", "--out", out]
        proc = run_cli(*args, "--symtab", symtab, "--scorer", "ngram", "--model", model)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"latbeam: {bad}: ")
        assert len(proc.stderr.splitlines()) == 1
        assert reason in proc.stderr

    def test_tune_takes_no_lambda_flags(self, ws, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", str(ws / "pushed"), str(ws / "refs.txt"),
                  "--symtab", str(ws / "symtab.txt"), "--lambda-lat", "2"])
        assert exc.value.code == 2
        assert "--lambda-lat" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def with_bad_lattice(src, dst):
    """Copy src's lattices into dst and add 002b.lat, which sorts between
    002 and 003 and has arcs but no final state."""
    dst.mkdir()
    for f in src.glob("*.lat"):
        (dst / f.name).write_bytes(f.read_bytes())
    arcs = [line for line in (src / "002.lat").read_text().splitlines()
            if len(line.split()) == 4]
    (dst / "002b.lat").write_text("\n".join(arcs) + "\n")
    return dst


def error_lines(stderr):
    """Per-file error lines, without push's timing table or decode's
    score lines."""
    return [line for line in stderr.splitlines()
            if ": " in line and ": score " not in line]


class RecordingPool:
    """Stands in for ProcessPoolExecutor and starts no process: it runs the
    initializer and the jobs in this process and records how it was used."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.initargs = initargs
        self.jobs = []
        initializer(*initargs)
        POOLS.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.fn = fn
        self.chunksize = chunksize
        self.jobs = list(items)
        return map(fn, self.jobs)


POOLS = []


class TestPerFileContract:
    """Each file succeeds or fails on its own, the same with and without
    workers; the pool is bounded by the input."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_worker_context", {})
        POOLS.clear()
        yield POOLS
        POOLS.clear()

    @pytest.mark.parametrize("command", ["push", "decode", "nbest"])
    def test_bad_lattice_same_with_workers(self, ws, tmp_path, capsys, command):
        src = ws / ("lattices" if command == "push" else "pushed")
        latdir = with_bad_lattice(src, tmp_path / "lats")
        runs = {}
        for workers in ("1", "3"):
            out = tmp_path / f"out{workers}"
            argv = {"push": ["push", str(latdir), str(out)],
                    "decode": decode_args(ws, "--out", str(out)),
                    "nbest": ["nbest", str(latdir), "--out", str(out)]}[command]
            if command == "decode":
                argv[1] = str(latdir)
            else:
                argv += ["--symtab", str(ws / "symtab.txt")]
            assert main(argv + ["--workers", workers]) == 1
            captured = capsys.readouterr()
            payload = ([f.read_bytes() for f in sorted(out.glob("*.lat"))]
                       if command == "push" else out.read_bytes())
            # push's timing table differs run to run; decode's score lines stay
            stderr = captured.err if command != "push" else None
            runs[workers] = (captured.out, payload, error_lines(captured.err), stderr)
        assert runs["1"] == runs["3"]
        assert runs["1"][2] == ["002b: no final state"]
        if command == "push":
            assert len(runs["1"][1]) == 6
        if command == "decode":
            assert runs["1"][1].count(b"\n") == 6
            ids = [line.split(":")[0] for line in runs["1"][3].splitlines()[:-1]]
            assert ids == ["000", "001", "002", "002b", "003", "004", "005"]

    def test_nbest_worker_byte_identity(self, ws, tmp_path):
        serial = tmp_path / "serial.nbest"
        parallel = tmp_path / "parallel.nbest"
        for out, workers in ((serial, "1"), (parallel, "3")):
            assert main(["nbest", str(ws / "pushed"), "--symtab", str(ws / "symtab.txt"),
                         "--nbest", "20", "--out", str(out), "--workers", workers]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert serial.stat().st_size > 0

    def test_stats_bad_lattice(self, ws, tmp_path, capsys):
        latdir = with_bad_lattice(ws / "lattices", tmp_path / "lats")
        assert main(["stats", str(latdir), "--symtab", str(ws / "symtab.txt"),
                     "--json"]) == 1
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in rows] == [f"{i:03d}" for i in range(6)]
        assert captured.err.splitlines() == ["002b: no final state"]

    def test_pool_no_larger_than_input(self, ws, tmp_path, recorded):
        out = tmp_path / "pushed"
        assert main(["push", str(ws / "lattices"), str(out),
                     "--symtab", str(ws / "symtab.txt"), "--workers", "64"]) == 0
        assert [pool.max_workers for pool in recorded] == [6]
        assert len(recorded[0].jobs) == 6
        for f in sorted(out.glob("*.lat")):
            assert f.read_bytes() == (ws / "pushed" / f.name).read_bytes()

    def test_scorer_sent_once_not_per_job(self, ws, tmp_path, recorded):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(decode_args(ws, "--out", str(serial))) == 0
        assert main(decode_args(ws, "--out", str(parallel), "--workers", "2")) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        (pool,) = recorded
        assert pool.max_workers == 2
        assert pool.chunksize >= 1
        (context,) = pool.initargs
        assert set(context) == {"symbols", "scorer", "cfg"}
        assert all(isinstance(job, Path) for job in pool.jobs)
        scorer_bytes = len(pickle.dumps(context["scorer"]))
        assert len(pickle.dumps(pool.fn)) < scorer_bytes

    def test_serial_run_starts_no_pool(self, ws, tmp_path, recorded):
        assert main(["push", str(ws / "lattices"), str(tmp_path / "pushed"),
                     "--symtab", str(ws / "symtab.txt")]) == 0
        assert recorded == []

    def test_importing_the_cli_loads_no_pool_modules(self):
        # only a run with more than one worker imports the process pool
        probe = ("import sys, latbeam.cli; print([m for m in ('multiprocessing', "
                 "'concurrent.futures.process') if m in sys.modules])")
        proc = run_python("-c", probe, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("command", ["push", "decode", "nbest"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, ws, tmp_path, capsys, recorded,
                                              command, workers):
        argv = [command, str(ws / "pushed")]
        if command == "push":
            argv.append(str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--symtab", str(ws / "symtab.txt"), "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert recorded == []

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nbest_below_one_is_usage_error(self, ws, tmp_path, count):
        out = tmp_path / "hyps.nbest"
        proc = run_cli("nbest", ws / "pushed", "--symtab", ws / "symtab.txt",
                       "--nbest", count, "--out", out)
        assert proc.returncode == 2
        assert "--nbest" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_demo_sentences_below_one_is_usage_error(self, tmp_path, count):
        outdir = tmp_path / "demo"
        proc = run_cli("demo", outdir, "--sentences", count)
        assert proc.returncode == 2
        assert "--sentences" in proc.stderr
        assert "wrote demo set" not in proc.stderr
        assert proc.stdout == ""
        assert not outdir.exists()

    def test_demo_seed_comes_from_the_flag_alone(self, tmp_path, monkeypatch):
        # no environment variable sets the seed: --seed does, 13 by default
        monkeypatch.setenv("LG_SEED", "abc")
        proc = run_cli("demo", tmp_path / "got", "--sentences", "2")
        assert proc.returncode == 0, proc.stderr
        assert "seed 13" in proc.stderr
        write_demo(build_demo(seed=13, n_sentences=2), tmp_path / "want")

        def files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        assert files(tmp_path / "got") == files(tmp_path / "want")

    def test_tune_names_the_bad_lattice(self, ws, tmp_path, capsys):
        latdir = with_bad_lattice(ws / "pushed", tmp_path / "lats")
        assert main(["tune", str(latdir), str(ws / "refs.txt"),
                     "--symtab", str(ws / "symtab.txt"), "--grid", "0:1:0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["002b: no final state"]

    def test_tune_failed_decode_is_its_files_line(self, ws, capsys, monkeypatch):
        # the fourth decode is 001's first grid point; the files after it
        # are still decoded
        calls = []

        def failing(lattice, scorer, cfg):
            calls.append(cfg)
            if len(calls) == 4:
                raise RuntimeError("boom")
            return decode(lattice, scorer, cfg)

        monkeypatch.setattr(latbeam.bleu, "decode", failing)
        assert main(["tune", str(ws / "pushed"), str(ws / "refs.txt"),
                     "--symtab", str(ws / "symtab.txt"), "--grid", "0:1:0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["001: decode failed at lambda_lat=0.0: boom"]
        assert len(calls) == 6 * 3 - 2

    def test_tune_unreadable_lattice_prints_only_its_error(self, ws, tmp_path, capsys):
        # as many references as files, so every lattice is decoded: 002
        # fails, the files after it are still decoded and 004 fails too;
        # a failed file leaves stdout empty and the exit status 1
        latdir = tmp_path / "lats"
        latdir.mkdir()
        for f in (ws / "pushed").glob("*.lat"):
            (latdir / f.name).write_bytes(f.read_bytes())
        for ident in ("002", "004"):
            arcs = [line for line in (latdir / f"{ident}.lat").read_text().splitlines()
                    if len(line.split()) == 4]
            (latdir / f"{ident}.lat").write_text("\n".join(arcs) + "\n")
        assert main(["tune", str(latdir), str(ws / "refs.txt"),
                     "--symtab", str(ws / "symtab.txt"), "--scorer", "ngram",
                     "--model", str(ws / "model.txt"), "--grid", "0:1:0.5", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["002: no final state", "004: no final state"]


class TestScorerVocabulary:
    """Words only a scorer file knows never widen the lattice vocabulary."""

    @pytest.fixture(scope="class")
    def oov(self, ws, tmp_path_factory):
        root = tmp_path_factory.mktemp("oov")
        corpus = root / "train.txt"
        corpus.write_text((ws / "train.txt").read_text() + "zz01 w00 w01\n")
        assert main(["train", str(corpus), "--out", str(root / "model.txt")]) == 0
        (root / "lats").mkdir()
        (root / "lats" / "000.lat").write_text("0 1 zz01 0\n1 0\n")
        (root / "refs.txt").write_text("w00\n")
        (root / "hyps.nbest").write_text("000 ||| zz01 ||| -0.5\n")
        return root

    @pytest.mark.parametrize("command", ["decode", "nbest", "tune", "rescore"])
    def test_scorer_only_word_is_unknown(self, ws, oov, capsys, command):
        scorer = ["--scorer", "ngram", "--model", str(oov / "model.txt")]
        argv = {"decode": ["decode", str(oov / "lats"), *scorer],
                "nbest": ["nbest", str(oov / "lats")],
                "tune": ["tune", str(oov / "lats"), str(oov / "refs.txt"), *scorer],
                "rescore": ["rescore", str(oov / "hyps.nbest"), *scorer]}[command]
        assert main(argv + ["--symtab", str(ws / "symtab.txt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "unknown symbol 'zz01'" in line
        where = {"rescore": f"latbeam: {oov / 'hyps.nbest'}: line 1: "}
        assert line.startswith(where.get(command, "000: "))



def strict_json(line):
    """json.loads that refuses NaN and Infinity, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(line, parse_constant=refuse)


class TestNonFiniteScores:
    """A best score that is not finite fails its sentence or list; --json
    never prints NaN or Infinity."""

    @pytest.fixture(scope="class")
    def zero(self, tmp_path_factory):
        """Lattice x, whose tokens a and b the table scorer gives no mass,
        lattice y, whose token z it gives half, and an n-best file of both."""
        root = tmp_path_factory.mktemp("zero")
        (root / "symtab.txt").write_text("<eps> 0\na 1\nb 2\nz 3\n")
        (root / "raw").mkdir()
        (root / "raw" / "x.lat").write_text("0 1 a 0.5\n0 1 b 0.7\n1\n")
        (root / "raw" / "y.lat").write_text("0 1 z 0.5\n1\n")
        assert main(["push", str(root / "raw"), str(root / "pushed"),
                     "--symtab", str(root / "symtab.txt")]) == 0
        half = math.log(0.5)
        (root / "table.txt").write_text(
            f"| a:-inf b:-inf z:{half!r} <unk>:-inf </s>:{half!r}\n")
        (root / "hyps.nbest").write_text(
            "y ||| z ||| -0.1\nx ||| a ||| -0.5\nx ||| b ||| -0.9\n")
        return root

    @pytest.mark.parametrize("flags", [[], ["--local-softmax"]])
    def test_decode_fails_the_sentence(self, zero, flags):
        proc = run_cli("decode", zero / "pushed", "--symtab", zero / "symtab.txt",
                       "--scorer", "table", "--model", zero / "table.txt", "--json", *flags)
        assert proc.returncode == 1
        (row,) = map(strict_json, proc.stdout.splitlines())
        assert row["id"] == "y" and row["tokens"] == ["z"]
        assert error_lines(proc.stderr) == ["x: best score is -inf, not finite"]

    def test_rescore_fails_with_one_line(self, zero):
        proc = run_cli("rescore", zero / "hyps.nbest", "--symtab", zero / "symtab.txt",
                       "--scorer", "table", "--model", zero / "table.txt", "--json")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"latbeam: {zero / 'hyps.nbest'}: list x: "
                               "best score is -inf, not finite\n")


class TestCollector:
    """main runs with Python's cyclic collector off, because latbeam's
    arcs, lattices, hypotheses and n-best lists hold no reference
    cycles, and restores the collector's previous state on return."""

    SIZES = (6, 24)
    COMMANDS = ("push", "decode", "nbest", "rescore", "tune")

    @pytest.fixture(scope="class")
    def sets(self, tmp_path_factory):
        """A pushed demo set with a bigram model and a 5-best file per size."""
        roots = {}
        for n in self.SIZES:
            root = roots[n] = tmp_path_factory.mktemp(f"demo{n}")
            symtab = str(root / "symtab.txt")
            assert main(["demo", str(root), "--seed", "7", "--sentences", str(n)]) == 0
            assert main(["push", str(root / "lattices"), str(root / "pushed"),
                         "--symtab", symtab]) == 0
            assert main(["train", str(root / "train.txt"), "--out", str(root / "model.txt"),
                         "--symtab", symtab, "--order", "2"]) == 0
            assert main(["nbest", str(root / "pushed"), "--symtab", symtab,
                         "--nbest", "5", "--out", str(root / "hyps.nbest")]) == 0
        return roots

    @staticmethod
    def argv(command, root, out):
        model = ["--symtab", str(root / "symtab.txt"), "--scorer", "ngram",
                 "--model", str(root / "model.txt")]
        return {
            "push": ["push", str(root / "lattices"), str(out),
                     "--symtab", str(root / "symtab.txt")],
            "decode": ["decode", str(root / "pushed"), *model, "--out", str(out)],
            "nbest": ["nbest", str(root / "pushed"), "--symtab", str(root / "symtab.txt"),
                      "--nbest", "20", "--out", str(out)],
            "rescore": ["rescore", str(root / "hyps.nbest"), *model, "--out", str(out)],
            "tune": ["tune", str(root / "pushed"), str(root / "refs.txt"), *model,
                     "--grid", "0:1:0.5"],
        }[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cyclic_garbage_does_not_grow_with_input(self, sets, tmp_path, capsys,
                                                     command):
        found = {}
        for n in self.SIZES:
            argv = self.argv(command, sets[n], tmp_path / f"out{n}")
            # off around main too, so no automatic collection runs
            # between main's return and the count
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0
                found[n] = gc.collect()
            finally:
                gc.enable()
        capsys.readouterr()
        assert found[6] == found[24]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, ws, tmp_path, capsys, enabled):
        runs = [
            (["stats", str(ws / "lattices"), "--symtab", str(ws / "symtab.txt")], 0),
            (["decode", str(tmp_path / "none"), "--symtab", str(ws / "symtab.txt")], 1),
        ]
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in runs:
                assert main(argv) == code
                assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):
                main(["decode"])
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        capsys.readouterr()


class TestStartUp:
    """Each command runs in its own process, so what importing latbeam
    loads is paid before every command's first sentence. dataclasses
    (which loads inspect) and logging cost about 1.5 MB of max RSS
    together and do no work for a command, so latbeam imports neither."""

    MODULES = ("dataclasses", "inspect", "logging")
    # a 3-state lattice prepared, decoded and scored with BLEU
    RUN = """
import latbeam, latbeam.cli
from latbeam import UniformScorer, Wfsa, corpus_bleu, decode, prepare
w = Wfsa()
w.add_arc(0, 1, 0.5, 1)
w.add_arc(0, 2, 1.0, 1)
w.add_arc(1, 3, 0.25, 2)
w.set_final(2)
best = decode(prepare(w), UniformScorer({1, 2, 3})).best.prefix
corpus_bleu([best], [best])
"""

    def loaded(self, code):
        """The names of MODULES that a fresh interpreter holds after
        running code, and its stderr."""
        report = f"import sys; print(*[m for m in {self.MODULES!r} if m in sys.modules])"
        proc = run_python("-c", code + "\n" + report, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split()), proc.stderr

    def test_a_run_imports_neither_dataclasses_nor_logging(self):
        at_start, _ = self.loaded("")
        loaded, stderr = self.loaded(self.RUN)
        assert loaded <= at_start
        assert stderr == ""

    def test_prepare_logs_the_discarded_total_once_logging_is_configured(self):
        # logging is imported after latbeam, as by a program that
        # configures it late
        configure = "import latbeam, logging\nlogging.basicConfig(level=logging.INFO)\n"
        _, stderr = self.loaded(configure + self.RUN)
        assert "discarded total" in stderr
