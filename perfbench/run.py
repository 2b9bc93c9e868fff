"""End-to-end benchmark of the kbvqa command chain.

    python3 perfbench/run.py --workload retrieve_100k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Inputs are generated from --seed
(workloads.py), then the workload's chain of ``kbvqa`` commands runs as a
user would type it, one process per command, for whole rounds until
--seconds have passed (at least MIN_ROUNDS rounds). Every round's outputs
are checked by checkers.py. End-to-end metrics are medians over rounds.

A round whose set-up commands took less than SETUP_WINDOW_S runs them again
on their own until they have, and setup_s is the median of every set-up
pass of the run; short set-ups are thus sampled as long as long ones.

--trace 1 alternates untraced rounds with rounds in which every command runs
under traced_cli.py, and reports the per-layer metrics of layer_report.py
plus the tracing overhead (traced minus untraced workflow time).

The metrics printed, and their units, are those BENCHMARK.json lists.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checkers
import layer_report
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3  # every end-to-end metric is a median of rounds
MIN_TRACE_PAIRS = 2
SETUP_WINDOW_S = 2.0  # set-up passes per untraced round: until they add up to this
PING_TRIES = 5
PING_SLACK_MS = 10.0  # a delayed-ACK stall would add ~40 ms

# Files each workload's chain writes, relative to the round's output directory.
OUTPUTS = {
    "retrieve_100k": {"index": "index/index.npz", "retrievals": "retrieve/retrieval_results.jsonl"},
    "core_http": {"index": "index/index.npz", "retrievals": "retrieve/retrieval_results.jsonl",
                  "core": "run/traces.jsonl",
                  "report": "score/report.json", "verdicts": "score/verdicts.jsonl"},
    "offline_eval": {"core": "core/traces.jsonl", "oracle": "oracle/traces.jsonl",
                     "probe": "probe/probe_traces.jsonl",
                     "d_int": "prki/d_int.jsonl", "d_ext": "prki/d_ext.jsonl",
                     "d_v": "vtki/d_v.jsonl", "d_t": "vtki/d_t.jsonl",
                     "export": "export/training_prki.jsonl",
                     "report": "score/report.json", "verdicts": "score/verdicts.jsonl"},
}
TRACES = ("core", "oracle", "probe")
PER_QUERY = ("retrievals", *TRACES)  # output_kb_per_query counts these files


class BenchError(Exception):
    """The benchmark could not run to the end; no result is printed."""


@dataclass(frozen=True)
class Step:
    name: str
    role: str  # "setup", "serve" or "other"
    args: tuple[str, ...]
    serves: int = 0  # queries answered by this command


@dataclass
class CommandRun:
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class RoundResult:
    traced: bool
    commands: dict[str, CommandRun]
    problems: list[str]
    attempted: int
    failed: int
    output_bytes: int
    trace_bytes: int
    setup_walls: list[float]  # one per set-up pass: the chain's own, then repeats
    stub: dict | None = None
    spans: list[dict] = field(default_factory=list)


def outputs(name: str, out: Path) -> dict[str, Path]:
    return {role: out / rel for role, rel in OUTPUTS[name].items()}


def chain(name: str, f: dict[str, Path], out: Path, n: int) -> list[Step]:
    """The workload's commands, in order, as a user would type them."""
    o = outputs(name, out)
    kb = ("--kb", str(f["kb"]), "--kb-manifest", str(f["kb_manifest"]))
    q = ("--queries", str(f["queries"]))
    ingest = Step("ingest", "setup", ("ingest", *kb, *q, "--out-dir", str(out / "ingest")))
    if name != "offline_eval":
        index = Step("index", "setup", ("index", *kb, "--kb-embeddings", str(f["kb_embeddings"]),
                                        "--out-dir", str(o["index"].parent)))
        retrieve_args = ("retrieve", *kb, "--index", str(o["index"]), *q,
                         "--query-manifest", str(f["query_manifest"]),
                         "--query-embeddings", str(f["query_embeddings"]),
                         "--k", str(workloads.K), "--out-dir", str(o["retrievals"].parent))
    if name == "retrieve_100k":
        return [ingest, index, Step("retrieve", "serve", retrieve_args, n)]
    if name == "core_http":
        retrievals = ("--retrievals", str(o["retrievals"]))
        return [
            ingest, index, Step("retrieve", "other", retrieve_args),
            Step("run", "serve", ("run", "--variant", "core", "--core-mode", "staged", *kb, *q,
                                  *retrievals, "--endpoint-config", str(f["endpoint"]),
                                  "--out-dir", str(o["core"].parent)), n),
            Step("score", "other", ("score", "--traces", str(o["core"]), *q, *retrievals, *kb,
                                    "--out-dir", str(o["report"].parent))),
        ]
    retrievals = ("--retrievals", str(f["retrievals"]))
    mock = ("--mock-script", str(f["mock_script"]), "--workers", "1")
    return [
        ingest,
        Step("run_core", "serve", ("run", "--variant", "core", "--core-mode", "staged", *kb, *q,
                                   *retrievals, *mock, "--out-dir", str(o["core"].parent)), n),
        Step("run_oracle", "serve", ("run", "--variant", "oracle", *kb, *q, *mock,
                                     "--out-dir", str(o["oracle"].parent)), n),
        Step("probe", "serve", ("probe-unimodal", *kb, *q, *retrievals, *mock,
                                "--out-dir", str(o["probe"].parent)), n),
        Step("mine_prki", "other", ("mine-prki", "--traces-int", str(o["core"]), "--traces-ext",
                                    str(o["core"]), *q, "--out-dir", str(o["d_int"].parent))),
        Step("mine_vtki", "other", ("mine-vtki", "--probe-traces", str(o["probe"]), *kb, *q,
                                    "--out-dir", str(o["d_v"].parent))),
        Step("export", "other", ("export-training", "--records", str(o["d_int"]),
                                 str(o["d_ext"]), "--objective", "prki",
                                 *kb, *q, "--out-dir", str(o["export"].parent))),
        Step("score", "other", ("score", "--traces", str(o["core"]), *q, *retrievals, *kb,
                                "--out-dir", str(o["report"].parent))),
    ]


def check_round(name: str, inputs: workloads.Inputs, out: Path,
                stub: dict | None) -> tuple[list[str], int]:
    """(problems, failed traces) for one round's outputs."""
    plan, o = inputs.plan, outputs(name, out)
    problems: list[str] = []
    if "retrievals" in o:
        problems += checkers.check_retrieval(o["retrievals"], inputs.expected_topk,
                                             workloads.entry_id)
    failed = 0
    for role, check in (("core", checkers.check_core_traces),
                        ("oracle", checkers.check_oracle_traces),
                        ("probe", checkers.check_probe_traces)):
        if role in o:
            found, f = check(o[role], plan)
            problems += found
            failed += f
    if stub is not None:
        problems += checkers.check_stub_stats(stub, plan)
    if "d_int" in o:
        problems += checkers.check_mining({b: o[b] for b in ("d_int", "d_ext", "d_v", "d_t")}, plan)
        problems += checkers.check_export(o["export"], plan)
    if "report" in o:
        problems += checkers.check_score(o["report"], o["verdicts"], plan)
    return problems, failed


def run_command(argv: list[str], env: dict, log_path: Path) -> tuple[CommandRun, int]:
    """Run one process to its end; wall time, its own CPU and peak RSS."""
    with log_path.open("wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6), \
        proc.returncode


class Stub:
    """The chat-completion stub in its own process."""

    def __init__(self, plan: Path, delay_ms: float, log_path: Path):
        self.delay_ms = delay_ms
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), "--plan", str(plan),
             "--delay-ms", str(delay_ms)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise BenchError(f"stub did not start; see {log_path}")
        self.port = int(line[1])

    def _get(self, path: str) -> tuple[float, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            started = time.perf_counter()
            conn.request("GET", path)
            body = conn.getresponse().read()
            return time.perf_counter() - started, body
        finally:
            conn.close()

    def check_round_trip(self) -> float:
        """Best bare round trip in ms; it must be the configured delay, no stall."""
        best = min(self._get("/ping")[0] for _ in range(PING_TRIES)) * 1000.0
        if not self.delay_ms <= best < self.delay_ms + PING_SLACK_MS:
            raise BenchError(f"stub round trip {best:.1f} ms, configured delay {self.delay_ms} ms")
        return best

    def stats(self) -> dict:
        return json.loads(self._get("/stats")[1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.inputs = workloads.generate(name, seed, work / "inputs")
        self.out = work / "out"
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # String hashing seeds set and dict layouts; pin it so runs repeat.
        self.env["PYTHONHASHSEED"] = "0"
        self.stub: Stub | None = None
        spec = self.inputs.spec
        if spec.stub_delay_ms:
            self.stub = Stub(self.inputs.files["plan"], spec.stub_delay_ms, self.logs / "stub.log")
            try:
                self.stub.check_round_trip()
            except BaseException:
                self.stub.close()
                raise
            endpoint = work / "inputs" / "endpoint.json"
            endpoint.write_text(json.dumps({"base_url": f"http://127.0.0.1:{self.stub.port}",
                                            "model": "stub", "timeout_s": 60.0}))
            self.inputs.files["endpoint"] = endpoint
        self.steps = chain(name, self.inputs.files, self.out, spec.queries)
        # Untimed: the inputs reach the disk and the first timed command does
        # not pay for loading the interpreter and libraries from it.
        for path in sorted((work / "inputs").rglob("*")):
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        run_command([sys.executable, "-m", "kbvqa.cli", "--help"], self.env, self.logs / "warmup.log")

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()

    def round(self, traced: bool) -> RoundResult:
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        if self.stub is not None:
            self.stub.stats()  # start the stub's counters at this round
        commands: dict[str, CommandRun] = {}
        spans: list[dict] = []
        for step in self.steps:
            if traced:
                spans_path = self.out / f"spans_{step.name}.json"
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *step.args]
            else:
                argv = [sys.executable, "-m", "kbvqa.cli", *step.args]
            commands[step.name] = self._command(step, argv)
            if traced:
                spans.append(json.loads(spans_path.read_text()))
        stub = self.stub.stats() if self.stub is not None else None
        problems, failed = check_round(self.name, self.inputs, self.out, stub)
        setup = [s for s in self.steps if s.role == "setup"]
        setup_walls = [sum(commands[s.name].wall_s for s in setup)]
        while not traced and sum(setup_walls) < SETUP_WINDOW_S:
            again = chain(self.name, self.inputs.files, self.out / f"setup{len(setup_walls)}", 0)
            setup_walls.append(sum(
                self._command(s, [sys.executable, "-m", "kbvqa.cli", *s.args]).wall_s
                for s in again if s.role == "setup"))
        o = outputs(self.name, self.out)
        trace_bytes = sum(o[r].stat().st_size for r in TRACES if r in o)
        return RoundResult(traced, commands, problems, sum(s.serves for s in self.steps), failed,
                           sum(o[r].stat().st_size for r in PER_QUERY if r in o), trace_bytes,
                           setup_walls, stub, spans)

    def _command(self, step: Step, argv: list[str]) -> CommandRun:
        log = self.logs / f"{step.name}.log"
        run, rc = run_command(argv, self.env, log)
        # run and probe-unimodal exit 1 when some queries failed; the checks report them
        if rc != 0 and not (rc == 1 and step.role == "serve"):
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{step.name} exited {rc}:\n{tail}")
        return run

    def end_to_end(self, r: RoundResult) -> dict[str, float]:
        n = self.inputs.spec.queries
        walls = {s.name: r.commands[s.name].wall_s for s in self.steps}
        serving = [s for s in self.steps if s.role == "serve"]
        return {
            "setup_s": statistics.median(r.setup_walls),
            "workflow_s": sum(walls.values()),
            "qps": sum(s.serves for s in serving) / sum(walls[s.name] for s in serving),
            "cpu_ms_per_query": 1000.0 * sum(c.cpu_s for c in r.commands.values()) / n,
            "peak_rss_mb": max(c.rss_mb for c in r.commands.values()),
            "output_kb_per_query": r.output_bytes / 1000.0 / n,
        }


def _median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[RoundResult], dict]:
    started = time.perf_counter()
    rounds: list[RoundResult] = []
    while True:
        if trace:
            rounds.append(bench.round(traced=False))
            rounds.append(bench.round(traced=True))
            enough = len(rounds) >= 2 * MIN_TRACE_PAIRS
        else:
            rounds.append(bench.round(traced=False))
            enough = len(rounds) >= MIN_ROUNDS
        r = rounds[-1]
        e2e = bench.end_to_end(r)
        print(f"round {len(rounds)}{' traced' if r.traced else ''}: "
              + " ".join(f"{k}={v:.4g}" for k, v in e2e.items())
              + f" setup_passes={len(r.setup_walls)} failed={r.failed}/{r.attempted}"
              + f" problems={len(r.problems)}", flush=True)
        if enough and time.perf_counter() - started >= seconds:
            break
    plain = [bench.end_to_end(r) for r in rounds if not r.traced]
    if not trace:
        values = _median_of(plain)
        values["setup_s"] = statistics.median(w for r in rounds for w in r.setup_walls)
        return rounds, values
    n = bench.inputs.spec.queries
    layers = _median_of([layer_report.round_metrics(r.spans, n, r.trace_bytes, r.stub)
                         for r in rounds if r.traced])
    traced = [bench.end_to_end(r) for r in rounds if r.traced]
    layers["trace.overhead_s"] = (statistics.median(t["workflow_s"] for t in traced)
                                  - statistics.median(p["workflow_s"] for p in plain))
    return rounds, layers


def main() -> int:
    ap = argparse.ArgumentParser(description="kbvqa end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "kbvqa" / "cli.py").is_file():
        print(f"error: no kbvqa sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("error: kbvqa sources do not compile", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    bench = None
    try:
        bench = Bench(args.workload, args.seed, work)
        rounds, values = measure(bench, args.seconds, bool(args.trace))
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"BENCHMARK.json lists metrics no report computes: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "problems": problems[:50], "rounds": [
            {"traced": r.traced, "failed": r.failed, "attempted": r.attempted,
             "commands": {k: vars(c) for k, c in r.commands.items()}} for r in rounds]},
            indent=1) + "\n")
    for p in problems[:20]:
        print(f"WRONG OUTPUT: {p}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{k:36s} {m['value']:14.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
