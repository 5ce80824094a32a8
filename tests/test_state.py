import importlib
import pkgutil

import logag
from logag import Canon, default_indexing, entails, graded_consequences, parse_term as T, telescope_n, verify

MODULES = [logag] + [importlib.import_module(f"logag.{m.name}") for m in pkgutil.iter_modules(logag.__path__)]


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
    memo = telescope_n(ot1, Canon("sum", "max", 2)).context.memo
    assert memo
    assert all(entails(base, goal) == answer for (base, goal), answer in memo.items())
