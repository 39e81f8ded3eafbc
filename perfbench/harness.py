"""Runs one workload: the command line in a closed loop (end-to-end
metrics) or once plus in-process passes (per-layer metrics), with the
outside checks, payload digests and run records."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
COMMAND_TIMEOUT_S = 150
SETUP_PROBES = 7
RESCORE_SAMPLE = 20
MIN_STEP_S = 2.0
MAX_REPEATS = 3
RATES = {"push": "push_sent_per_s", "decode": "decode_sent_per_s",
         "nbest": "nbest_sent_per_s", "rescore": "rescore_lists_per_s",
         "tune": "tune_decodes_per_s"}
UNITS = {"push_sent_per_s": "sent/s", "decode_sent_per_s": "sent/s",
         "nbest_sent_per_s": "sent/s", "rescore_lists_per_s": "lists/s",
         "tune_decodes_per_s": "decodes/s", "bleu": "bleu", "peak_rss_mb": "MB",
         "setup_s": "s", "decoder.decode.p50_ms": "ms", "decoder.decode.tail_ms": "ms",
         "decoder.consume_per_predict": "ratio", "trace.overhead_ratio": "ratio",
         "cli.dispatch_s": "s", "decoder.decode.self_s": "s"}
LAYER_SPANS = ("wfsa.parse_wfsa", "wfsa.serialize_wfsa", "ops.rm_epsilon",
               "ops.determinize", "ops.minimize", "ops.push_log",
               "posterior.verify_pipeline", "posterior.verify_disk", "scorers.load",
               "scorers.predict", "scorers.consume", "decoder.decode",
               "baselines.nbest_from_posterior", "baselines.rescore_nbest_dfs",
               "bleu.tune_grid", "bleu.corpus_bleu")
LAYER_COUNTS = ("wfsa.raw.states", "wfsa.raw.arcs",
                *(f"ops.{stage}.{what}"
                  for stage in ("rm_epsilon", "determinize", "minimize", "push_log")
                  for what in ("states", "arcs")),
                "scorers.predict.calls", "scorers.consume.calls",
                "decoder.node_expansions", "baselines.nbest.entries",
                "baselines.rescore.predict_calls")


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(".s") else "count"


@dataclass(slots=True)
class Step:
    command: str
    argv: list
    ops: int        # operations attempted: sentences, or lists for rescore
    units: int      # work behind the command's rate metric
    payload: Path | None    # --out file or push's outdir; None means stdout


@dataclass(slots=True)
class Result:
    wall: float
    cpu: float      # user + system time of the command and every child it waited for
    returncode: int
    rss_mb: float
    stdout: Path


class Cli:
    """Runs `python -m latbeam.cli` on this checkout's sources."""

    def __init__(self, out: Path):
        self.out = out
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run(self, name: str, argv, script: Path | None = None) -> Result:
        """Exit code, wall time, CPU time and peak resident set of one
        process, counting every child it waited for, pool workers included."""
        cmd = [sys.executable] + (["-m", "latbeam.cli"] if script is None else [script])
        stdout, report = self.out / f"{name}.stdout", self.out / f"{name}.report"
        with open(stdout, "wb") as out, open(self.out / f"{name}.stderr", "wb") as err:
            subprocess.run([str(a) for a in [sys.executable, BENCH / "launch.py", report,
                                             COMMAND_TIMEOUT_S, *cmd, *argv]],
                           stdout=out, stderr=err, env=self.env, cwd=ROOT, check=True)
        data = json.loads(report.read_text(encoding="utf-8"))
        return Result(data["wall"], data["cpu"], data["returncode"],
                      data["rss_kb"] / 1024, stdout)


def make_steps(plan: workloads.Plan, out: Path, n_workers: int = 1) -> list[Step]:
    m, t = plan.main, plan.tail
    workers = ["--workers", n_workers] if n_workers > 1 else []
    hyp, lists, best = out / "hyp.txt", out / "nbest.txt", out / "rescore.txt"
    n, nt = len(m.ids), len(t.ids)
    return [
        Step("push", ["push", m.raw, m.pushed, "--symtab", m.symtab, *workers],
             n, n, m.pushed),
        Step("decode", ["decode", m.pushed, "--symtab", m.symtab, *m.scorer,
                        "--beam", plan.beam, *workers, "--out", hyp], n, n, hyp),
        Step("nbest", ["nbest", t.pushed, "--symtab", t.symtab,
                       "--nbest", workloads.NBEST, *workers, "--out", lists],
             nt, nt, lists),
        Step("rescore", ["rescore", lists, "--symtab", t.symtab, *t.scorer,
                         "--mode", "dfs", "--out", best], nt, nt, best),
        Step("tune", ["tune", t.pushed, t.refs, "--symtab", t.symtab, *t.scorer,
                      "--beam", workloads.TUNE_BEAM, "--grid", workloads.GRID, "--json"],
             nt, nt * len(workloads.GRID_POINTS), None),
        Step("bleu", ["bleu", hyp, m.refs, "--json"], n, n, None),
    ]


def payload_digest(step: Step, result: Result) -> str:
    if step.payload is None:
        return tracing.sha256([result.stdout.read_bytes()])
    if step.payload.is_dir():
        return tracing.sha256(c for f in sorted(step.payload.glob("*.lat"))
                              for c in (f.name, "\0", f.read_bytes(), "\0"))
    return tracing.sha256([step.payload.read_bytes()])


def reported(step: Step, result: Result, digest: str) -> str:
    """What the in-process pass must reproduce: the payload digest, or
    for tune and bleu the digest of the values they report."""
    if step.command == "tune":
        record = json.loads(result.stdout.read_bytes())
        return tracing.sha256([json.dumps([record["lambda_lat"], record["bleu"]])])
    if step.command == "bleu":
        return tracing.sha256([repr(json.loads(result.stdout.read_bytes())["bleu"])])
    return digest


class Run:
    def __init__(self, args, plan: workloads.Plan, cli: Cli, work: Path):
        self.args, self.plan, self.cli, self.work = args, plan, cli, work
        self.steps = make_steps(plan, work / "out")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # failures that are not operations
        self.notes: list[str] = []
        self.digests: dict[str, str] = {}
        self.bleu: float | None = None

    def out_of_time(self, next_s: float) -> bool:
        """Whether another next_s seconds would end the run after --seconds."""
        return perf_counter() - self.args.started + next_s > self.args.seconds

    def fail(self, ops: int, note: str) -> None:
        self.failed += ops
        self.notes.append(note)

    def round(self, repeat: bool) -> dict[str, list[Result]]:
        """Each command in order; with repeat, a command with a rate
        metric runs again, up to MAX_REPEATS times, until it has used
        MIN_STEP_S, so short commands give more samples. The first round's
        outputs get the full outside checks; every later invocation must
        reproduce their payloads."""
        first = not self.digests
        results: dict[str, list[Result]] = {}
        for step in self.steps:
            runs = results[step.command] = []
            while not runs or (repeat and step.command in RATES
                               and len(runs) < MAX_REPEATS
                               and sum(r.wall for r in runs) < MIN_STEP_S):
                runs.append(self.invoke(step))
        if first:
            self.check({c: runs[-1] for c, runs in results.items()})
        return results

    def invoke(self, step: Step) -> Result:
        result = self.cli.run(step.command, step.argv)
        self.attempted += step.ops
        if result.returncode != 0:
            self.fail(step.ops, f"{step.command}: exit {result.returncode}")
            return result
        digest = payload_digest(step, result)
        if self.digests.setdefault(step.command, digest) != digest:
            self.fail(step.ops, f"{step.command}: payload differs between invocations")
        return result

    def check(self, results: dict[str, Result]) -> None:
        """Outside checks on the first outputs of every command that
        exited 0 (a failed command already counts all its operations)."""
        plan = self.plan
        ok = {s.command: s for s in self.steps if results[s.command].returncode == 0}
        lattices, symbols = {}, None
        if "push" in ok:
            failed, lattices, symbols = checks.pushed(plan.main)
            if failed:
                self.fail(failed, f"push: {failed} lattices fail verification")
        if "decode" in ok and symbols is not None:
            failed = checks.decoded(ok["decode"].payload, plan.main, lattices, symbols)
            if failed:
                self.fail(failed, f"decode: {failed} hypotheses rejected by their lattice")
        if "nbest" in ok:
            failed = checks.nbest_lists(ok["nbest"].payload, plan.tail)
            if failed:
                self.fail(failed, f"nbest: {failed} malformed lists")
        if "rescore" in ok and "nbest" in ok:
            failed = self.check_rescore(ok["nbest"].payload, ok["rescore"].payload)
            if failed:
                self.fail(failed, f"rescore: dfs and naive disagree on {failed} lists")
        if "tune" in ok and not checks.tuned(results["tune"].stdout.read_bytes(),
                                             workloads.GRID_POINTS):
            self.fail(ok["tune"].ops, "tune: malformed report")
        if "bleu" in ok and "decode" in ok:
            self.bleu = checks.bleu_value(results["bleu"].stdout.read_bytes(),
                                          ok["decode"].payload, plan.main.refs)
            if self.bleu is None:
                self.fail(ok["bleu"].ops, "bleu: score does not match corpus_bleu")
        if self.plan.check_workers:
            self.check_workers()

    def check_rescore(self, lists: Path, best: Path) -> int:
        """Rescore a seeded sample of the lists with --mode dfs and
        --mode naive, untimed; both must rank every list the same way."""
        ids = sorted(self.plan.tail.ids)
        rng = random.Random(self.args.seed)
        sample = set(rng.sample(ids, min(RESCORE_SAMPLE, len(ids))))
        sample_file = self.work / "out" / "nbest_sample.txt"
        sample_file.write_text("".join(
            line for line in lists.read_text(encoding="utf-8").splitlines(keepends=True)
            if line.split("|||", 1)[0].strip() in sample), encoding="utf-8")
        tail = self.plan.tail
        ranked = {}
        for mode in ("dfs", "naive"):
            out = self.work / "out" / f"rescore_{mode}.jsonl"
            result = self.cli.run(f"rescore_{mode}", [
                "rescore", sample_file, "--symtab", tail.symtab, *tail.scorer,
                "--mode", mode, "--json", "--out", out])
            ranked[mode] = checks.read_rescore_json(out) if result.returncode == 0 else {}
        full = dict(zip(ids, best.read_text(encoding="utf-8").splitlines()))
        return checks.rescore_agrees(sorted(sample), ranked["dfs"], ranked["naive"], full)

    def check_workers(self) -> None:
        """Acceptance criterion 11 from outside: push, decode and nbest
        with workers, once and untimed, reproduce the serial payloads
        byte for byte."""
        out = self.work / "workers"
        (out / "out").mkdir(parents=True)
        main = dataclasses.replace(self.plan.main, pushed=out / "pushed")
        plan = dataclasses.replace(self.plan, main=main, tail=main)
        for step in make_steps(plan, out / "out", self.plan.check_workers)[:3]:
            result = self.cli.run(f"workers_{step.command}", step.argv)
            self.attempted += step.ops
            if (result.returncode != 0
                    or payload_digest(step, result) != self.digests.get(step.command)):
                self.fail(step.ops, f"{step.command}: --workers "
                          f"{self.plan.check_workers} differs from the serial run")

    def end_to_end(self) -> dict[str, float]:
        """A first round, then further rounds while the run, set-up
        included, fits in --seconds: a command runs only if its last
        duration still fits, as often per round as in the first round.
        Each rate is the median over every invocation of its command,
        per second of CPU time of the command's processes: on a shared
        host, wall time also counts the time the host runs other tenants
        on this machine's virtual CPUs."""
        results = self.round(repeat=True)
        per_round = {c: len(runs) for c, runs in results.items()}
        rounds = 1
        while True:
            ran = False
            for step in self.steps:
                runs = results[step.command]
                for _ in range(per_round[step.command]):
                    if self.out_of_time(runs[-1].wall):
                        break
                    runs.append(self.invoke(step))
                    ran = True
            if not ran:
                break
            rounds += 1
        metrics = {RATES[s.command]: statistics.median(s.units / r.cpu
                                                       for r in results[s.command])
                   for s in self.steps if s.command in RATES}
        metrics["bleu"] = self.bleu if self.bleu is not None else 0.0
        metrics["peak_rss_mb"] = max(r.rss_mb for runs in results.values() for r in runs)
        busy = sum(r.wall for runs in results.values() for r in runs)
        self.notes.append(f"{rounds} rounds, {busy:.1f} s of commands")
        for kind in ("wall", "cpu"):
            self.notes += [f"{c} {kind} s: " + " ".join(f"{getattr(r, kind):.3f}"
                                                        for r in runs)
                           for c, runs in results.items()]
        return metrics

    def per_layer(self) -> tuple[dict[str, float], dict[str, int], list]:
        """One command-line round, then untraced and traced in-process
        passes in turn while the run fits in --seconds (at least one of
        each)."""
        results = {c: runs[0] for c, runs in self.round(repeat=False).items()}
        cli_walls = {c: r.wall for c, r in results.items()}
        expected = {s.command: reported(s, results[s.command], self.digests[s.command])
                    for s in self.steps if results[s.command].returncode == 0}
        files = {s.command: s.payload for s in self.steps}
        plain, traced = [], []
        start = perf_counter()
        while True:
            for passes, enabled in ((plain, False), (traced, True)):
                p = tracing.Pass(self.plan, files, enabled)
                p.run()
                passes.append(p)
                self.problems += [f"{c}: in-process pass differs from the command line"
                                  for c in p.digests if p.digests[c] != expected.get(c)]
            if self.out_of_time((perf_counter() - start) / len(traced)):
                break
        counters = traced[0].counters
        if any(p.counters != counters for p in traced[1:]):
            self.problems.append("counters differ between traced passes")
        layers = [p.layer_times() for p in traced]

        def median(name):
            return statistics.median(layer.get(name, 0.0) for layer in layers)

        metrics = {f"{name}.s": median(name) for name in LAYER_SPANS}
        p50, tail = zip(*(tracing.tail_ms(p.decode_ms()) for p in traced))
        metrics["decoder.decode.self_s"] = median("decoder.decode.self")
        metrics["decoder.decode.p50_ms"] = statistics.median(p50)
        metrics["decoder.decode.tail_ms"] = statistics.median(tail)
        metrics["decoder.decode.samples"] = len(traced[0].decode_ms())
        metrics["decoder.consume_per_predict"] = (
            counters["decoder.consume_calls"] / counters["decoder.predict_calls"])
        metrics.update((name, counters[name]) for name in LAYER_COUNTS)
        metrics["cli.dispatch_s"] = sum(
            wall - statistics.median(p.walls[c] for p in plain)
            for c, wall in cli_walls.items())
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(p.walls.values()) for p in traced)
            / statistics.median(sum(p.walls.values()) for p in plain))
        self.notes.append(f"{len(traced)} traced and {len(plain)} untraced passes")
        return metrics, counters, traced


def setup_seconds(cli: Cli, corpus: workloads.Corpus) -> float:
    """Median CPU time for a fresh process to import latbeam, read the
    symbol table and load the scorer, as every command does first."""
    argv = [corpus.symtab, *corpus.scorer[3:]]
    probe = BENCH / "probe_setup.py"
    cli.run("probe", argv, script=probe)    # warm the file cache
    cpus = []
    for _ in range(SETUP_PROBES):
        result = cli.run("probe", argv, script=probe)
        if result.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed")
        cpus.append(result.cpu)
    return statistics.median(cpus)


def code_hash() -> str:
    files = sorted(SRC.glob("latbeam/**/*.py")) + sorted(BENCH.glob("*.py"))
    return tracing.sha256(c for f in files
                          for c in (str(f.relative_to(ROOT)), "\0", f.read_bytes(), "\0"))


def src_lines() -> int:
    return sum(len(f.read_bytes().splitlines()) for f in SRC.glob("latbeam/**/*.py"))


def compare_record(path: Path, record: dict) -> list[str]:
    """Runs of the same code and seed must give the same payload digests
    and counters. Merges this run into the stored record."""
    stored = {}
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored.get("code") != record["code"]:
            stored = {}
    problems = []
    for key in ("digests", "counters"):
        old, new = stored.get(key, {}), record[key]
        problems += [f"{key} {name} differs from an earlier run of this code and seed"
                     for name in sorted(old.keys() & new.keys()) if old[name] != new[name]]
        stored[key] = {**old, **new}
    stored.update(code=record["code"], src_lines=record["src_lines"])
    path.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def measure(args, work: Path) -> int:
    cli = Cli(work / "out")

    def train(corpus, symtab, out):
        if cli.run("train", ["train", corpus, "--symtab", symtab, "--out", out,
                             "--order", 3, "--smoothing", "add-k"]).returncode != 0:
            raise SystemExit("perfbench: training the n-gram scorer failed")

    def push(corpus):
        if cli.run("push_tail", ["push", corpus.raw, corpus.pushed,
                                 "--symtab", corpus.symtab]).returncode != 0:
            raise SystemExit("perfbench: pushing the companion set failed")

    plan = workloads.build(args.workload, args.seed, args.size, work, train, push)
    run = Run(args, plan, cli, work)

    record = {"code": code_hash(), "src_lines": src_lines(), "counters": {}}
    if args.trace:
        metrics, record["counters"], traced = run.per_layer()
        spans = STATE / "spans" / f"{args.workload}-seed{args.seed}-{args.size}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        n = tracing.write_spans(traced, spans)
        run.notes.append(f"{n} spans written to {spans.relative_to(ROOT)}; "
                         f"tracing overhead x{metrics['trace.overhead_ratio']:.3f}")
    else:
        setup_s = setup_seconds(cli, plan.main)
        metrics = {**run.end_to_end(), "setup_s": setup_s}
    record["digests"] = run.digests

    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    run.problems += compare_record(
        records / f"{args.workload}-seed{args.seed}-{args.size}.json", record)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit(name)}")
    print(f"  {'ops_failed_frac':<36} {run.failed / max(run.attempted, 1):>14.6g} "
          f"({run.failed} of {run.attempted} operations)")
    print(f"  {'src/latbeam lines':<36} {record['src_lines']:>14}")
    for name, digest in sorted(run.digests.items()):
        print(f"  sha256 {name:<8} {digest}")
    for note in run.notes + run.problems:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()}}))
    return 0
