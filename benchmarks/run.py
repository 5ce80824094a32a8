"""logag benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file's checkout. With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones, each by name with its unit, then one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

All load comes from this process running one op at a time in a child
interpreter, with ``PYTHONHASHSEED`` pinned so that SAT branching, which
follows frozenset order, repeats from run to run.

The end-to-end times are scaled to a fixed host speed: the op processes time
a fixed pure-Python burst beside every op (``speed.py``), and each time is
multiplied by the mean of ``speed.REFERENCE_S`` over each burst beside it.
The measured times and the median factor are printed as comment lines.

Workloads (``benchmarks/NOTES.md`` says why each was chosen):

``trace-penguin16``
    One op is ``logag trace --format json --max-level 16`` on the
    translation of ``tests/data/penguin.rules``, in a fresh interpreter.
``verify-chain3``
    One op is ``logag args verify --atom-cap 256`` on
    ``benchmarks/inputs/chain3.rules``, in a fresh interpreter.
``random-batch``
    One long-lived interpreter calls ``graded_consequences`` once per seeded
    random theory (``benchmarks/theories.py``).

The seed only changes ``random-batch``'s theories; the two CLI workloads have
fixed inputs and reference outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
OUT = ROOT / ".bench_out"
HASH_SEED = "0"
RUN_LIMIT_S = 170.0  # the whole run, warm-up and checks included
SETUP_SAMPLES = 15  # fresh interpreters timed for random-batch's setup_s
TRACED_BATCH_OPS = 200  # fixed, so traced counts repeat exactly

TRACE_ARGV = ["trace", "--format", "json", "--max-level", "16", ".bench_out/work/penguin.logag"]
VERIFY_ARGV = ["args", "verify", "--atom-cap", "256", "benchmarks/inputs/chain3.rules"]


class ChildFailed(Exception):
    pass


class Run:
    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = time.monotonic()
        self.measure_start = self.started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, *args: str) -> dict:
        """Run ``child.py`` with ``args``; its JSON line, plus ``setup_s``."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise ChildFailed("run time limit reached")
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child {args[0]} timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        doc["setup_s"] = doc["ready"] - spawned
        return doc

    def cli_op(self, argv: list[str], expected_exit: int, expected_output: str,
               mode: Path | str | None = None) -> dict | None:
        """One CLI op in a fresh interpreter, checked against the reference.

        ``mode`` is ``"probe"`` to measure the host's speed beside the op, or
        the spans path of a traced op (see ``child.py``).
        """
        self.attempted += 1
        try:
            doc = self.child("cli", json.dumps(argv), *([str(mode)] if mode else []))
        except ChildFailed as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        if doc["exit"] != expected_exit or doc["output"] != expected_output:
            self.failed += 1
            self.problems.append(f"op output differs from the reference (exit {doc['exit']})")
        return doc

    def time_left(self) -> bool:
        return time.monotonic() - self.measure_start < self.seconds


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _times(samples: dict[str, list[float]]) -> dict:
    return {
        "setup_s": statistics.median(samples["setup"]),
        "op_p50_s": statistics.median(samples["op"]),
        "op_p90_s": _p90(samples["op"]),
        "ops_per_s": len(samples["op"]) / sum(samples["op"]),
    }


def end_to_end(setups: list[tuple[float, float]], ops: list[tuple[float, float]],
               peak_rss_mb: float) -> tuple[dict, list[str]]:
    """Metrics from (measured time, speed factor) pairs, and a note with the measured times."""
    values = _times({"setup": [t * f for t, f in setups], "op": [t * f for t, f in ops]})
    values["peak_rss_mb"] = peak_rss_mb
    measured = _times({"setup": [t for t, _ in setups], "op": [t for t, _ in ops]})
    note = (f"median speed factor {statistics.median(f for _, f in ops):.4f}; measured "
            + ", ".join(f"{k} {v:.6f}" for k, v in measured.items()))
    return values, [note]


def _prepare_cli(run: Run, workload: str) -> tuple[list[str], int, str]:
    """The op's argv, exit code and output; the translation also warms the byte-code cache."""
    rules = "tests/data/penguin.rules" if workload == "trace-penguin16" else VERIFY_ARGV[-1]
    doc = run.child("cli", json.dumps(["args", "translate", rules]))
    if doc["exit"] != 0:
        raise ChildFailed(f"args translate failed on {rules}")
    if workload == "trace-penguin16":
        (OUT / "work").mkdir(parents=True, exist_ok=True)
        (OUT / "work" / "penguin.logag").write_text(doc["output"], encoding="utf-8")
        return TRACE_ARGV, 0, (REFERENCE / "trace-penguin16.json").read_text(encoding="utf-8")
    meta = json.loads((REFERENCE / "verify-chain3.json").read_text(encoding="utf-8"))
    stdout = (REFERENCE / "verify-chain3.stdout").read_text(encoding="utf-8")
    return VERIFY_ARGV, meta["exit_code"], stdout


def measure_cli(run: Run, workload: str, trace: bool) -> tuple[dict, list[str]]:
    argv, expected_exit, expected = _prepare_cli(run, workload)
    run.measure_start = time.monotonic()
    if not trace:
        docs = []
        while run.time_left():
            doc = run.cli_op(argv, expected_exit, expected, "probe")
            if doc:
                docs.append(doc)
        if not docs:
            raise ChildFailed("no op completed")
        values, notes = end_to_end([(d["setup_s"], d["speed_factor"]) for d in docs],
                                   [(d["op_s"], d["speed_factor"]) for d in docs],
                                   statistics.median(d["peak_rss_mb"] for d in docs))
        return values, [f"{len(docs)} ops, each in a fresh interpreter", *notes]

    def pair(spans) -> tuple[float, dict]:
        plain = run.cli_op(argv, expected_exit, expected)
        traced = run.cli_op(argv, expected_exit, expected, spans)
        if not (plain and traced):
            raise ChildFailed("an op failed in the traced run")
        return plain["op_s"], traced

    return measure_traced(run, workload, pair, "fresh interpreter per op")


def measure_batch(run: Run, seed: int, trace: bool) -> tuple[dict, list[str]]:
    reference = json.loads((REFERENCE / "random-batch.json").read_text(encoding="utf-8"))
    run.child("setup")  # warms the byte-code and file caches
    run.measure_start = time.monotonic()
    if not trace:
        setups = [run.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        doc = run.child("batch", str(seed), "0", str(run.seconds), "probe")
        _check_batch(run, doc, reference)
        # The set-up interpreters run just before the batch, at the run's speed.
        run_factor = statistics.median(doc["speed_factors"])
        values, notes = end_to_end([(t, run_factor) for t in setups],
                                   list(zip(doc["op_times"], doc["speed_factors"])),
                                   doc["peak_rss_mb"])
        return values, [f"{len(doc['op_times'])} ops in one interpreter; setup_s over "
                        f"{len(setups)} fresh interpreters", *notes]

    def pair(spans) -> tuple[float, dict]:
        n = str(TRACED_BATCH_OPS)
        plain = run.child("batch", str(seed), n, str(RUN_LIMIT_S))
        _check_batch(run, plain, reference)
        traced = run.child("batch", str(seed), n, str(RUN_LIMIT_S), str(spans))
        run.attempted += len(traced["op_times"])
        run.failed += traced["failed"]
        if traced["answers"] != plain["answers"]:
            run.problems.append("traced answers differ from untraced answers")
        traced["op_s"] = statistics.fmean(traced["op_times"])
        return statistics.fmean(plain["op_times"]), traced

    return measure_traced(run, "random-batch", pair,
                          f"theories 0..{TRACED_BATCH_OPS - 1} of seed {seed} per process")


def measure_traced(run: Run, workload: str, pair, what: str) -> tuple[dict, list[str]]:
    """Untraced and traced processes on the same ops, alternating until the time is up.

    ``pair(spans)`` runs one of each and returns the untraced mean op time
    and the traced process's output; only the first traced process writes
    its spans. Per-layer values are means over the
    traced processes; the overhead is the median of the per-pair differences.
    """
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans" / f"{workload}.tsv"
    plain, traced = [], []
    while run.time_left() or not traced:
        a, b = pair(spans if not traced else "-")
        plain.append(a)
        traced.append(b)
    layers = {k: statistics.fmean(d["layers"][k] for d in traced) for k in traced[0]["layers"]}
    layers["trace.untraced_op_s"] = statistics.median(plain)
    layers["trace.traced_op_s"] = statistics.median(d["op_s"] for d in traced)
    layers["trace.overhead_s"] = statistics.median(d["op_s"] - a for a, d in zip(plain, traced))
    notes = [f"{len(traced)} traced and untraced process pairs, {what}; "
             f"the first traced process's spans are in {spans.relative_to(ROOT)}"]
    counts = [{k: v for k, v in d["layers"].items() if not k.endswith("_s")} for d in traced]
    if any(c != counts[0] for c in counts):
        notes.append("per-layer counts differ between traced processes")
    return layers, notes


def _check_batch(run: Run, doc: dict, reference: dict) -> None:
    run.attempted += len(doc["op_times"])
    run.failed += doc["failed"]
    if doc["reference_digest"] != reference["sha256"]:
        run.problems.append("reference batch answers differ from reference/random-batch.json")
    if doc["oracle_mismatches"] or not doc["oracle_checked"]:
        run.problems.append(f"level-0 answers disagree with tests/oracles.tt_entails "
                            f"({doc['oracle_mismatches']} of {doc['oracle_checked']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    needed = [spec_path, ROOT / "src" / "logag" / "__init__.py", ROOT / "tests" / "oracles.py",
              ROOT / "tests" / "data" / "penguin.rules"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a logag checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if ns.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {ns.workload!r}", file=sys.stderr)
        return 2
    if ns.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    run = Run(ns.seconds)
    print(f"# workload {ns.workload}, seed {ns.seed}, {ns.seconds:g} s, trace {ns.trace}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"PYTHONHASHSEED={HASH_SEED} in every op process")
    try:
        if ns.workload == "random-batch":
            values, notes = measure_batch(run, ns.seed, bool(ns.trace))
        else:
            values, notes = measure_cli(run, ns.workload, bool(ns.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"# {note}")

    wanted = spec["per_layer" if ns.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6f} {m['unit']}")
    print(f"{'fail_ratio':48s} {run.failed / max(run.attempted, 1):>14.6f} "
          f"({run.failed} of {run.attempted} ops)")
    if ns.trace:
        shares = sorted(((v, k[:-7]) for k, v in values.items() if k.endswith(".self_s")), reverse=True)
        total = sum(v for v, _ in shares) or 1.0
        print("# self time share: " + ", ".join(f"{k} {v / total:.0%}" for v, k in shares[:5]))
    for problem in run.problems:
        print(f"# problem: {problem}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
