"""Command line round trips on a small generated workspace."""

import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latbeam
from latbeam import cli
from latbeam.bleu import corpus_bleu
from latbeam.cli import main
from latbeam.posterior import PosteriorLattice
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


def run_cli(*args, timeout=None):
    """Run the command line in a fresh interpreter, as a user would."""
    src = str(Path(latbeam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "latbeam.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=timeout)


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

    @pytest.mark.parametrize("flags", [
        pytest.param(["--order", "0"], id="order-0"),
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

    @pytest.mark.parametrize("lambdas", [("-1", "0"), ("0", "0")])
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
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
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

    def test_tune_names_the_bad_lattice(self, ws, tmp_path, capsys):
        latdir = with_bad_lattice(ws / "pushed", tmp_path / "lats")
        assert main(["tune", str(latdir), str(ws / "refs.txt"),
                     "--symtab", str(ws / "symtab.txt"), "--grid", "0:1:0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["002b: no final state"]


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
        if command != "rescore":
            assert line.startswith("000: ")

