import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logag.cli import console_main, main
from logag import parse_theory, translate, parse_rules, default_indexing

DATA = Path(__file__).parent / "data"
BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
REFERENCE = BENCHMARKS / "reference"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_check_yes(tmp_path):
    code, out = run(
        "check", str(DATA / "ot1.logag"),
        "--query", "Flies(Tweety)",
        "--level", "1", "--otimes", "sum", "--oplus", "max",
    )
    assert code == 0
    assert "YES" in out


def test_check_no():
    code, out = run(
        "check", str(DATA / "ot2.logag"), "--query", "Flies(Tweety)", "--level", "1"
    )
    assert code == 1
    assert "NO" in out


def test_check_json_format():
    code, out = run(
        "check", str(DATA / "ot1.logag"),
        "--query", "Flies(Tweety)", "--query", "Flies(Opus)",
        "--level", "1", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["results"] == [
        {"query": "Flies(Tweety)", "holds": True},
        {"query": "Flies(Opus)", "holds": False},
    ]


def test_the_console_script_exits_with_the_code_main_returns(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["logag", "check", str(DATA / "ot1.logag"), "--query", "p"])
    with pytest.raises(SystemExit) as info:
        console_main()
    assert info.value.code == 1
    assert capsys.readouterr().out == "NO   p\n"


def test_check_missing_file_is_usage_error():
    code, _ = run("check", "missing.logag", "--query", "p")
    assert code == 2


def test_check_parse_error_is_usage_error(tmp_path):
    bad = tmp_path / "bad.logag"
    bad.write_text("p &.\n")
    code, _ = run("check", str(bad), "--query", "p")
    assert code == 2


@pytest.mark.parametrize(
    "argv, text, line, column",
    [
        (["check", "{bad}", "--query", "p"], b"theory t.\np\xe9.\n", 2, 2),
        (["args", "verify", "{bad}"], b"r1: caf\xe9.\n", 1, 8),
        (["args", "verify", str(DATA / "penguin.rules"), "--indexing", "{bad}"], b"INDEX: r7\nINDEX: \xe9\n", 2, 8),
    ],
    ids=["theory", "rules", "indexing"],
)
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, argv, text, line, column):
    bad = tmp_path / "bad"
    bad.write_bytes(text)
    assert run(*(a.format(bad=bad) for a in argv)) == (2, "")
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read {bad}: not UTF-8 text (line {line}, column {column})"
    ]


@pytest.mark.parametrize(
    "text, error",
    [
        ("INDEX: r8\nINDEX: r7 r8\n", "'r7 r8' is not a non-monotonic rule (line 2, column 8)"),
        ("INDEX: r8\n INDEX: r7,r3\n", "'r3' is not a non-monotonic rule (line 2, column 12)"),
        ("INDEX: r8\nINDEX: r7\n  INDEX: r8\n", "indexed subset ['r8'] is listed twice (line 3, column 3)"),
        ("INDEX: r7\n", "indexing must cover every non-empty subset exactly once"),
    ],
    ids=["missing-comma", "monotonic-label", "repeated-subset", "missing-subsets"],
)
def test_an_indexing_label_error_is_a_usage_error_at_its_position(tmp_path, capsys, text, error):
    idx = tmp_path / "bad.idx"
    idx.write_text(text)
    assert run("args", "verify", str(DATA / "penguin.rules"), "--indexing", str(idx)) == (2, "")
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


def test_a_doubly_negated_rule_literal_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.rules"
    bad.write_text("r1: a.\nr2: a -> ~~b.\n")
    assert run("args", "verify", str(bad)) == (2, "")
    assert capsys.readouterr().err.splitlines() == [
        "error: a literal takes at most one '~' (line 2, column 10)"
    ]


@pytest.mark.parametrize(
    "text, query, error",
    [
        ("G(p, 1/0).\n", "p", "invalid grade '1/0' (line 1, column 6)"),
        ("p.\n1.5/2 < 2.\n", "p", "invalid grade '1.5/2' (line 2, column 1)"),
        ("p.\n", "G(p, 1/0)", "invalid grade '1/0' (line 1, column 6)"),
    ],
    ids=["theory-zero-denominator", "theory-decimal-over-integer", "query-zero-denominator"],
)
def test_a_grade_that_is_no_fraction_is_a_usage_error(tmp_path, capsys, text, query, error):
    bad = tmp_path / "bad.logag"
    bad.write_text(text)
    assert run("check", str(bad), "--query", query) == (2, "")
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


def test_trace_text_shows_level2_kernels():
    code, out = run(
        "trace", str(DATA / "penguin_brother.logag"),
        "--max-level", "3", "--otimes", "mean", "--oplus", "max",
    )
    assert code == 0
    assert "{f, ~f}" in out
    assert "{f, p, ~p | ~f}" in out


def test_trace_fixpoint_flag_for_ot1():
    code, out = run("trace", str(DATA / "ot1.logag"), "--max-level", "2")
    assert code == 0
    lines = out.splitlines()
    level1 = lines.index("== level 1 ==")
    block = "\n".join(lines[level1 : level1 + 8])
    assert "fixpoint   : yes" in block


def test_trace_json_round_trips():
    code, out = run(
        "trace", str(DATA / "penguin_brother.logag"),
        "--max-level", "2", "--otimes", "mean", "--oplus", "max", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theory"] == "penguin_brother"
    assert doc["levels"][1]["kernels"] == [["f", "p", "~p | ~f"], ["f", "~f"]]
    code2, out2 = run(
        "trace", str(DATA / "penguin_brother.logag"),
        "--max-level", "2", "--otimes", "mean", "--oplus", "max", "--format", "json",
    )
    assert out == out2


def test_args_enumerate_counts_eight():
    code, out = run("args", "enumerate", str(DATA / "penguin.rules"))
    assert code == 0
    assert "total: 8 arguments" in out


def test_args_structures_lists_two():
    code, out = run("args", "structures", str(DATA / "penguin.rules"))
    assert code == 0
    assert "total: 2 structures" in out
    assert "~flies(A)" in out


def test_args_structures_numbers_arguments_smallest_first():
    code, out = run("args", "structures", str(DATA / "penguin.rules"))
    assert code == 0
    assert out.splitlines() == [
        "T1: {p1, p2, p3, p4}",
        "  wffs: abnormal(bird(A)) ; bird(A) ; penguin(A) ; true",
        "T2 (maximal): {p1, p2, p3, p4, p6, p7}",
        "  wffs: abnormal(bird(A)) ; bird(A) ; penguin(A) ; true ; ~abnormal(penguin(A)) ; ~flies(A)",
        "total: 2 structures",
    ]


def test_args_structures_enumerates_the_arguments_once(monkeypatch):
    import logag.arguments
    import logag.cli

    calls = []
    original = logag.arguments.enumerate_arguments

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (logag.arguments, logag.cli):
        monkeypatch.setattr(module, "enumerate_arguments", counted)
    code, _ = run("args", "structures", str(DATA / "penguin.rules"))
    assert (code, len(calls)) == (0, 1)


def test_args_translate_output_reparses_to_translation(tmp_path):
    code, out = run("args", "translate", str(DATA / "penguin.rules"))
    assert code == 0
    reparsed = parse_theory(out)
    rules = parse_rules((DATA / "penguin.rules").read_text())
    expected = translate(rules, default_indexing(rules))
    assert reparsed.terms == expected.terms


def test_args_translate_feeds_check(tmp_path):
    _, out = run("args", "translate", str(DATA / "penguin.rules"))
    theory_file = tmp_path / "trans.logag"
    theory_file.write_text(out)
    code, text = run(
        "check", str(theory_file),
        "--query", "~abnormal(penguin(A))", "--query", "~flies(A)",
        "--level", "1",
    )
    assert code == 0
    assert text.count("YES") == 2


def test_args_verify_passes():
    code, out = run("args", "verify", str(DATA / "penguin.rules"))
    assert code == 0
    assert out.count("PASS") == 4  # two structures, two checks each


def test_args_has_no_format_option(capsys):
    code, out = run("args", "verify", str(DATA / "penguin.rules"), "--format", "json")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_args_verify_with_indexing_override(tmp_path):
    override = tmp_path / "order.idx"
    override.write_text("INDEX: r8\nINDEX: r7\nINDEX: r7, r8\n")
    code, out = run(
        "args", "verify", str(DATA / "penguin.rules"), "--indexing", str(override)
    )
    assert code == 0
    assert "level 2" in out  # the r7-structure now sits at depth 2


def test_only_translate_and_verify_build_the_indexing(tmp_path, capsys):
    # Thirteen defaults have 8192 subsets, over the subset cap of 4096.
    wide = tmp_path / "wide.rules"
    wide.write_text("f0: a.\n" + "".join(f"d{i}: a => b{i}.\n" for i in range(13)))
    code, out = run("args", "enumerate", str(wide))
    assert code == 0
    assert out.splitlines()[-1] == "total: 14 arguments"
    assert "error" not in capsys.readouterr().err
    code, _ = run("args", "structures", str(wide))
    assert code == 3
    assert "error: structure seeds" in capsys.readouterr().err
    for action in ("translate", "verify"):
        code, out = run("args", action, str(wide))
        assert (code, out) == (3, "")
        assert "error: indexing subsets" in capsys.readouterr().err


def test_capacity_error_maps_to_exit_3(tmp_path):
    wide = tmp_path / "wide.logag"
    wide.write_text("".join(f"p{i}.\n" for i in range(30)) + "~p0.\n")
    code, _ = run("check", str(wide), "--query", "p1", "--atom-cap", "24")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(DATA / "ot1.logag"), "--query", "Flies(Tweety)", "--level", "-1"],
        ["trace", str(DATA / "ot1.logag"), "--max-level", "-1"],
        ["check", str(DATA / "ot1.logag"), "--query", "Flies(Tweety)", "--atom-cap", "-1"],
        ["args", "enumerate", str(DATA / "penguin.rules"), "--depth-cap", "-1"],
    ],
    ids=["level", "max-level", "atom-cap", "depth-cap"],
)
def test_negative_levels_and_caps_are_usage_errors(argv, capsys):
    assert run(*argv) == (2, "")
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"logag {argv[0]}: error: argument {argv[-2]}: must be >= 0, not -1"]


def test_over_deep_input_maps_to_exit_3(tmp_path, capsys):
    tower = "p"
    for _ in range(300):
        tower = f"G({tower}, 1)"
    deep = tmp_path / "deep.logag"
    deep.write_text(tower + ".\n")
    code, _ = run("check", str(deep), "--query", "p")
    assert code == 3
    assert "error: input nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [330, 400])
def test_a_330_deep_negation_chain_still_answers_under_check(tmp_path, depth):
    # depth - 1 negations over p. Parsing hashes the chain recursively: each
    # level is one record ``__hash__`` frame, entered from the field tuple's
    # hash, and counts twice against the recursion limit, so a chain deeper
    # than about 490 exits 3 there. Compiling it takes no more frames.
    deep = tmp_path / "deep.logag"
    deep.write_text("~" * (depth - 1) + "p.\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    argv = [sys.executable, "-c", "from logag.cli import console_main; console_main()", "check", str(deep)]
    done = subprocess.run(argv + ["--query", "p", "--query", "~p"], env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout.decode().split()) == (1, ["NO", "p", "YES", "~p"])


@pytest.mark.parametrize(
    "target, argv",
    [
        ("graded_consequences", ["check", str(DATA / "ot1.logag"), "--query", "p"]),
        ("telescope_n", ["trace", str(DATA / "ot1.logag")]),
        ("verify", ["args", "verify", str(DATA / "penguin.rules")]),
    ],
    ids=["check", "trace", "verify"],
)
def test_an_unexpected_internal_error_exits_4_with_one_line(monkeypatch, capsys, target, argv):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(f"logag.cli.{target}", broken)
    assert run(*argv) == (4, "")
    assert capsys.readouterr().err == "error: internal error: KeyError('boom')\n"


def test_trace_penguin16_matches_benchmark_reference(tmp_path):
    _, theory = run("args", "translate", str(DATA / "penguin.rules"))
    theory_file = tmp_path / "penguin.logag"
    theory_file.write_text(theory)
    code, out = run("trace", "--format", "json", "--max-level", "16", str(theory_file))
    assert code == 0
    assert out == (REFERENCE / "trace-penguin16.json").read_text(encoding="utf-8")


def test_trace_penguin16_does_not_depend_on_the_hash_seed(tmp_path):
    # Set iteration order, and with it the SAT variable numbering, follows
    # the hash seed; the answers must not.
    _, theory = run("args", "translate", str(DATA / "penguin.rules"))
    theory_file = tmp_path / "penguin.logag"
    theory_file.write_text(theory)
    src = str(Path(__file__).parent.parent / "src")
    argv = [sys.executable, "-m", "logag.cli", "trace", "--format", "json", "--max-level", "16"]
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(argv + [str(theory_file)], env=env, capture_output=True, timeout=300)
        assert done.returncode == 0
        assert done.stdout == (REFERENCE / "trace-penguin16.json").read_bytes()


def test_verify_chain3_matches_benchmark_reference():
    chain3 = BENCHMARKS / "inputs" / "chain3.rules"
    code, out = run("args", "verify", "--atom-cap", "256", str(chain3))
    assert code == 1  # T2-T6 fail Theorem 1 (ROADMAP item 1)
    assert out == (REFERENCE / "verify-chain3.stdout").read_text(encoding="utf-8")


def test_trace_penguin16_text_matches_the_json_reference(tmp_path):
    # The text trace spelled out: per level a header, then each set of the
    # JSON document as its rendered terms joined by " ; " ("(none)" when
    # empty), each kernel in braces with its members joined by ", ", and the
    # fixpoint flag as yes/no.
    def joined(items):
        return " ; ".join(items) if items else "(none)"

    doc = json.loads((REFERENCE / "trace-penguin16.json").read_text(encoding="utf-8"))
    expected = []
    for level in doc["levels"]:
        expected += [
            f"== level {level['index']} ==",
            f"  base       : {joined(level['base'])}",
            f"  -> level {level['index'] + 1}:",
            f"  expansion  : {joined(level['expansion'])}",
            f"  kernels    : {joined(['{' + ', '.join(k) + '}' for k in level['kernels']])}",
            f"  survivors  : {joined(level['survivors'])}",
            f"  supported  : {joined(level['supported'])}",
            f"  fixpoint   : {'yes' if level['fixpoint'] else 'no'}",
        ]
    _, theory = run("args", "translate", str(DATA / "penguin.rules"))
    theory_file = tmp_path / "penguin.logag"
    theory_file.write_text(theory)
    code, out = run("trace", "--format", "text", "--max-level", "16", str(theory_file))
    assert code == 0
    assert out == "\n".join(expected) + "\n"


def test_verify_penguin_r9_pins_the_known_theorem1_failure():
    # Known defect (ROADMAP item 1(b)): with a third default whose premise is
    # `true`, T2 and T4 miss consequences their structures support. This pins
    # today's verdict, recorded in benchmarks/NOTES.md, until it is fixed.
    code, out = run("args", "verify", "--atom-cap", "256", str(DATA / "penguin_r9.rules"))
    assert code == 1
    assert out.splitlines() == [
        "T1 (level 0): supported-formulas check PASS, classical-bound check PASS",
        "T2 (level 3): supported-formulas check FAIL, classical-bound check PASS",
        "  missing consequence: swims(A)",
        "T3 (level 1): supported-formulas check PASS, classical-bound check PASS",
        "T4 (level 5): supported-formulas check FAIL, classical-bound check PASS",
        "  missing consequence: ~abnormal(penguin(A))",
        "  missing consequence: ~flies(A)",
    ]


def test_every_traced_bench_name_is_a_logag_callable():
    # The traced bench run wraps each (module, name) in TARGETS by getattr;
    # a deleted or renamed function must fail here, not only in the bench.
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"logag.{module}"), name, None)), (module, name)
