"""A/B benchmark of two git refs: alternating pairs on fresh seeds.

    python3 tools/bench_ab.py PARENT CHANGE --label NAME \\
        --workload retrieve_100k:10 --workload core_http:5 --workload offline_eval:5

Each ref is extracted with ``git archive`` into a temporary directory (no
worktree, nothing written in this checkout except the result file). For
every pair, both copies run their own ``perfbench/run.py --trace 0`` on the
same seed, one after the other; which side runs first alternates from pair
to pair. Each run lasts ``run_seconds`` of the parent's ``BENCHMARK.json``.
Seeds start above every seed recorded in the ``BENCH_*.json`` files at the
root of this checkout, and at least at 1000.

The result, ``BENCH_<label>.json`` at the root of this checkout, holds per
workload and end-to-end metric: each side's median and quartiles, the
parent's IQR, and how many pairs the change won, lost and tied, the winning
direction being ``better`` in ``BENCHMARK.json``. A metric whose parent IQR
is wider than its bound times the parent's median is marked ``unresolved``,
unless every run of the change reads better than every run of the parent:
its runs spread too widely to tell a change within the bound from none. It
also holds the seeds,
each run's ``correct``, ``attempted`` and ``failed``, and the machine
(nproc, Python, numpy and its BLAS).

``BENCH_self_baseline.json``, when this checkout has it, is a run of one
commit against itself. Each metric's self-baseline spread is the wider of
that run's parent IQR and the gap between its two sides' medians, as a share
of its parent median: what identical code can read. It is stored beside each
metric as ``self_baseline_spread``, and printed beside each reading; a gain
no larger than it is flagged, since it does not tell the change from none.

Exit status: 0 when every run was correct with no failed query, 1 when some
run was not (the file is still written), 2 when a run could not finish.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED_FLOOR = 1000  # seeds below this were used by hand before the script existed
SELF_BASELINE = "BENCH_self_baseline.json"


class RunError(Exception):
    """A benchmark run ended without a result."""


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(root: Path, commit: str, dest: Path) -> None:
    """The tree of commit, as files under dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def used_seeds(root: Path) -> set[int]:
    seeds: set[int] = set()
    for path in root.glob("BENCH_*.json"):
        bench = json.loads(path.read_text(encoding="utf-8"))
        for workload in bench.get("workloads", {}).values():
            seeds.update(workload.get("seeds", ()))
    return seeds


Step = tuple[str, int, int, tuple[str, str]]  # workload, pair, seed, side order


def plan(workloads: list[tuple[str, int]], first_seed: int) -> list[Step]:
    """(workload, pair, seed, side order) for every pair; a fresh seed per pair."""
    steps = []
    seed = first_seed
    for name, pairs in workloads:
        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            steps.append((name, pair, seed, order))
            seed += 1
    return steps


def run_once(copy: Path, workload: str, seed: int, seconds: float, log: Path) -> dict:
    """One perfbench/run.py of a copy; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with log.open("w", encoding="utf-8") as fh:
        proc = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=fh, text=True)
        fh.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunError(f"{workload} seed {seed} ({copy.name}) exited {proc.returncode} "
                       "without a result") from None
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per-workload, per-metric comparison of the two sides over their pairs.

    runs: one dict per run with "workload", "pair", "seed", "side", "first"
    and "result" (run.py's final JSON object).
    """
    out: dict = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r["result"] for r in mine}
        complete = [p for p in pairs if all((p, side) in by for side in SIDES)]
        metrics = {}
        for m in spec["end_to_end"]:
            sign = 1.0 if m["better"] == "higher" else -1.0
            values = {side: [by[(p, side)]["metrics"][m["name"]]["value"] for p in complete]
                      for side in SIDES}
            diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            medians = {side: statistics.median(values[side]) for side in SIDES}
            parent_q, change_q = _quartiles(values["parent"]), _quartiles(values["change"])
            parent_iqr = parent_q[1] - parent_q[0]
            gain = sign * (medians["change"] - medians["parent"])
            wins = sum(d > 0 for d in diffs)
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent_median": medians["parent"], "change_median": medians["change"],
                "parent_quartiles": list(parent_q), "change_quartiles": list(change_q),
                "parent_iqr": parent_iqr,
                "change_wins": wins, "change_losses": sum(d < 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs), "pairs": len(complete),
                # relative change, positive when the change is better
                "gain_fraction": gain / abs(medians["parent"]) if medians["parent"] else 0.0,
                "gain_shown": wins >= 0.9 * len(complete) and gain > parent_iqr,
                "worse_than_bound": -gain > m["bound"] * abs(medians["parent"]),
                # a spread wider than the bound cannot show "unchanged", unless
                # every run of the change reads better than every run of the parent
                "unresolved": (parent_iqr > m["bound"] * abs(medians["parent"])
                               and min(sign * v for v in values["change"])
                               <= max(sign * v for v in values["parent"])),
            }
        out[name] = {
            "pairs": len(complete),
            "seeds": sorted({r["seed"] for r in mine}),
            "runs": [{"pair": r["pair"], "seed": r["seed"], "side": r["side"], "first": r["first"],
                      "correct": r["result"]["correct"], "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
                     for r in mine],
            "metrics": metrics,
        }
    return out


def self_spread(root: Path) -> dict[str, dict[str, float]]:
    """Per workload and metric, the self-baseline spread of SELF_BASELINE
    under root, as a share of its parent median; empty without the file."""
    path = root / SELF_BASELINE
    if not path.is_file():
        return {}
    bench = json.loads(path.read_text(encoding="utf-8"))
    return {name: {metric: max(m["parent_iqr"] / abs(m["parent_median"]), abs(m["gain_fraction"]))
                   for metric, m in workload["metrics"].items() if m["parent_median"]}
            for name, workload in bench["workloads"].items()}


def add_self_spread(workloads: dict, spread: dict[str, dict[str, float]]) -> None:
    """Set self_baseline_spread on each metric of workloads that spread has."""
    for name, workload in workloads.items():
        for metric, m in workload["metrics"].items():
            if metric in spread.get(name, {}):
                m["self_baseline_spread"] = spread[name][metric]


def report_lines(workloads: dict) -> list[str]:
    """Each metric's reading beside its self-baseline spread; a gain no
    larger than that spread is flagged."""
    lines = []
    for name, workload in workloads.items():
        for metric, m in workload["metrics"].items():
            line = (f"{name} {metric}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                    f"{m['unit']} ({100 * m['gain_fraction']:+.1f}%, "
                    f"{m['change_wins']}/{m['pairs']} pairs won)")
            spread = m.get("self_baseline_spread")
            if spread is None:
                line += ", no self-baseline"
            else:
                line += f", self-baseline spread {100 * spread:.1f}%"
                if 0 < m["gain_fraction"] <= spread:
                    line += ": GAIN WITHIN THE SELF-BASELINE SPREAD"
            lines.append(line)
    return lines


def all_correct(runs: list[dict]) -> bool:
    return all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)


def machine() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        info["blas"] = {k: blas[k] for k in ("name", "version", "openblas configuration")
                        if k in blas}
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        info["blas"] = "unknown"
    return info


def _workload_arg(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    try:
        count = int(pairs) if pairs else 10
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME[:PAIRS], got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"pairs must be positive, got {count}")
    return name, count


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git ref of the parent side")
    ap.add_argument("change", help="git ref of the change side")
    ap.add_argument("--label", required=True, help="names the result file BENCH_<label>.json")
    ap.add_argument("--workload", type=_workload_arg, action="append", required=True,
                    metavar="NAME[:PAIRS]", help="workload and its pair count (default 10)")
    args = ap.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    try:
        commits = {side: git(root, "rev-parse", "--verify", getattr(args, side) + "^{commit}")
                   for side in SIDES}
    except subprocess.CalledProcessError as exc:
        print(f"error: not a commit: {exc.cmd[-1].removesuffix('^{commit}')}", file=sys.stderr)
        return 2
    steps = plan(args.workload, max([FIRST_SEED_FLOOR - 1, *used_seeds(root)]) + 1)

    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_ab.") as tmp:
        tmp_path = Path(tmp)
        copies = {side: tmp_path / side for side in SIDES}
        for side in SIDES:
            extract(root, commits[side], copies[side])
        spec = json.loads((copies["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        unknown = {name for name, _ in args.workload} - {w["name"] for w in spec["workloads"]}
        if unknown:
            print(f"error: workloads not in BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
            return 2
        for name, pair, seed, order in steps:
            for side in order:
                log = tmp_path / f"{name}-{seed}-{side}.log"
                try:
                    result = run_once(copies[side], name, seed, seconds, log)
                except RunError as exc:
                    print(f"error: {exc}\n{log.read_text(errors='replace')[-2000:]}",
                          file=sys.stderr)
                    return 2
                runs.append({"workload": name, "pair": pair, "seed": seed, "side": side,
                             "first": side == order[0], "result": result})
                qps = result["metrics"]["qps"]["value"]
                print(f"{name} pair {pair + 1} seed {seed} {side}: qps {qps:.4g} "
                      f"correct {result['correct']} failed {result['failed']}", flush=True)

    bench = {
        "label": args.label,
        "refs": {side: {"ref": getattr(args, side), "commit": commits[side]} for side in SIDES},
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                    "--trace 0"),
        "protocol": "alternating pairs on one seed each; the side that runs first alternates",
        "date_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": machine(),
        "all_correct": all_correct(runs),
        "workloads": summarize(runs, spec),
    }
    add_self_spread(bench["workloads"], self_spread(root))
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print("\n".join(report_lines(bench["workloads"])))
    print(f"wrote {path}")
    return 0 if bench["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
