"""One benchmark process. Prints one JSON line with what it measured.

Modes:

``cli ARGV_JSON [probe|SPANS]``
    Import ``logag.cli``, then time ``logag.cli.main(argv)`` once. With
    ``probe``, ``speed.Probe`` measures the host's speed during the call,
    and ``speed_factor`` is the factor to the reference speed. With
    ``SPANS``, the call is traced and its spans are written to that path,
    unless it is ``-``.
``batch SEED COUNT SECONDS [probe|SPANS]``
    The ``random-batch`` library user: theories 0, 1, ... of the seed's
    stream, one ``graded_consequences`` call each, until ``COUNT`` ops are
    done (0: no limit) or ``SECONDS`` of op time have passed. Afterwards it
    answers the fixed reference batch, for the digest and the oracle check.
    ``peak_rss_mb`` is read after ``RSS_AT_OPS`` ops. With ``probe``, a
    ``speed.burst()`` is timed after every ``speed.PERIOD_S`` of op time, and
    each op's ``speed_factors`` entry comes from the bursts within
    ``SPEED_WINDOW_S`` of its start.
``setup``
    Import what ``batch`` imports, and exit.
``digest``
    Print the reference batch's digest, to regenerate the stored reference.

``ready`` in the output is ``time.monotonic()`` once imports and inputs are
ready; the parent subtracts the moment it spawned the process.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent

REFERENCE_SEED = 0
REFERENCE_THEORIES = 64
ORACLE_SAMPLE = 8  # reference theories small enough for a truth table
ORACLE_MAX_ATOMS = 12
# The caches grow with the number of theories answered, not with time, so
# peak memory is read after a fixed number of ops (or at the end, if fewer).
RSS_AT_OPS = 1500
SPEED_WINDOW_S = 0.5


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def run_cli(argv: list[str], spans: str | None) -> None:
    import logag.cli

    ready = time.monotonic()
    recorder = probe = None
    if spans == "probe":
        probe = speed.Probe()
    elif spans:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    out = io.StringIO()
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        code = logag.cli.main(argv, out=out)
        op_s = time.perf_counter() - t0
    doc = {"ready": ready, "op_s": op_s, "exit": code, "output": out.getvalue(),
           "peak_rss_mb": _maxrss_mb()}
    if probe:
        doc["op_s"] -= probe.held_s
        doc["speed_factor"] = speed.factor(probe.bursts)
    if recorder:
        doc["layers"] = recorder.layer_metrics(1)
        if spans != "-":
            recorder.write_spans(spans)
    _emit(doc)


def _reference_answers(logag, theories):
    return [
        (theory, queries, logag.graded_consequences(theory, theories.CANON, queries))
        for theory, queries in (theories.theory(REFERENCE_SEED, i) for i in range(REFERENCE_THEORIES))
    ]


def _reference_digest(theories, reference) -> str:
    return theories.digest(theories.answers_line(i, a) for i, (_, _, a) in enumerate(reference))


def _oracle_check(logag, theories, reference) -> tuple[int, int]:
    """Level-0 answers of the smallest reference theories against a truth table."""
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import tt_entails

    sample = [
        (theory, queries)
        for theory, queries, _ in reference
        if len(theories.atoms_of(theory.terms)) <= ORACLE_MAX_ATOMS
    ][:ORACLE_SAMPLE]
    level0 = logag.Canon("sum", "max", 0)
    checked = bad = 0
    for theory, queries in sample:
        answers = logag.graded_consequences(theory, level0, queries)
        checked += len(queries)
        bad += sum(answers[q] != tt_entails(theory.terms, q) for q in queries)
    return checked, bad


def run_batch(seed: int, count: int, seconds: float, spans: str | None) -> None:
    import logag
    import theories

    ready = time.monotonic()
    recorder = None
    probe = spans == "probe"
    if spans and not probe:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    op_starts: list[float] = []
    burst_times: list[float] = []
    bursts: list[float] = []
    next_burst = 0.0
    op_times: list[float] = []
    lines: list[str] = []
    failed = 0
    budget = 0.0
    index = 0
    while (count == 0 or index < count) and budget < seconds:
        theory, queries = theories.theory(seed, index)
        if recorder:
            recorder.begin_op(index)
        t0 = time.perf_counter()
        op_starts.append(t0)
        try:
            answers = logag.graded_consequences(theory, theories.CANON, queries)
        except Exception as exc:  # a failed op is counted, and the run goes on
            answers = exc
        op_s = time.perf_counter() - t0
        op_times.append(op_s)
        budget += op_s
        if isinstance(answers, dict) and list(answers) == queries and all(
            type(v) is bool for v in answers.values()
        ):
            lines.append(theories.answers_line(index, answers))
        else:
            failed += 1
        index += 1
        if index == RSS_AT_OPS:
            peak = _maxrss_mb()
        if probe and budget >= next_burst:
            burst_times.append(time.perf_counter())
            bursts.append(speed.burst())
            next_burst += speed.PERIOD_S
    if index < RSS_AT_OPS:
        peak = _maxrss_mb()
    doc = {"ready": ready, "op_times": op_times, "failed": failed, "peak_rss_mb": peak,
           "answers": theories.digest(lines)}
    if probe:
        doc["speed_factors"] = [
            speed.factor(bursts[bisect.bisect_left(burst_times, t - SPEED_WINDOW_S):
                                bisect.bisect_right(burst_times, t + SPEED_WINDOW_S)] or bursts)
            for t in op_starts
        ]
    if recorder:
        doc["layers"] = recorder.layer_metrics(len(op_times))
        if spans != "-":
            recorder.write_spans(spans)
    else:
        reference = _reference_answers(logag, theories)
        doc["reference_digest"] = _reference_digest(theories, reference)
        doc["oracle_checked"], doc["oracle_mismatches"] = _oracle_check(logag, theories, reference)
    _emit(doc)


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "cli":
        run_cli(json.loads(argv[1]), argv[2] if len(argv) > 2 else None)
    elif mode == "batch":
        run_batch(int(argv[1]), int(argv[2]), float(argv[3]), argv[4] if len(argv) > 4 else None)
    elif mode == "setup":
        import logag  # noqa: F401
        import theories  # noqa: F401

        _emit({"ready": time.monotonic()})
    elif mode == "digest":
        import logag
        import theories

        reference = _reference_answers(logag, theories)
        print(_reference_digest(theories, reference))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
