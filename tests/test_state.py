import ast
import importlib
import pkgutil
import types
from pathlib import Path

import logag
from logag import Canon, default_indexing, graded_consequences, parse_term as T, telescope_n, verify
from logag.classical import entails

MODULES = [logag] + [importlib.import_module(f"logag.{m.name}") for m in pkgutil.iter_modules(logag.__path__)]
SOURCES = sorted(Path(logag.__file__).parent.glob("*.py"))

# The package's API as README documents it; the engine layers and their
# result types stay in their submodules.
DOCUMENTED = (
    # the term data model
    "Term", "TrueTerm", "Atom", "Not", "And", "Or", "Grade", "Less", "GradeEq",
    "Individual", "TRUE", "Theory", "render", "parse_term", "parse_theory",
    # telescoping and graded consequence
    "Canon", "RunContext", "GradeTable", "telescope_n", "graded_consequence",
    "graded_consequences", "find_fixpoint",
    # the argument-system frontend and its harnesses
    "parse_rules", "enumerate_arguments", "enumerate_structures", "wffs",
    "default_indexing", "translate", "verify", "check_theorem1", "check_theorem2",
    # limits, and the errors behind the CLI's exit codes
    "Limits", "DEFAULT_LIMITS", "EngineError", "ParseError", "CapacityError",
)
TOKEN_KINDS = {"ws", "comment", "number", "arrow", "darrow", "eqeq", "ident", "punct", "eof"}


def _module_state():
    """Size of every module-level dict, list and set in the package."""
    sizes = {}
    for module in MODULES:
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name} is a cache"
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                sizes[module.__name__, name] = len(value)
    return sizes


def test_engine_keeps_no_state_between_calls(ot1, ot2, penguin_rules):
    before = _module_state()
    canon = Canon("sum", "max", 2)
    graded_consequences(ot1, canon, [T("Flies(Tweety)"), T("Flies(Opus)")])
    graded_consequences(ot2, canon, [T("Flies(Tweety)")])
    verify(penguin_rules, default_indexing(penguin_rules))
    assert _module_state() == before


def test_a_run_keeps_its_answers_on_its_trace(ot1):
    memo = telescope_n(ot1, Canon("sum", "max", 2)).context.session.memo
    assert memo
    assert all(entails(base, goal) == answer for (base, goal), answer in memo.items())


def test_the_package_exports_the_documented_api():
    public = {
        name
        for name, value in vars(logag).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(DOCUMENTED)
    assert len(DOCUMENTED) == len(set(DOCUMENTED))


def test_no_module_reads_another_modules_private_names():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("logag")):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


def test_only_the_term_parser_reads_token_kinds():
    for path in SOURCES:
        if path.name == "terms.py":
            continue
        strings = {
            node.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not strings & TOKEN_KINDS, f"{path.name} reads token kinds {sorted(strings & TOKEN_KINDS)}"
