import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from logag import DEFAULT_LIMITS, Canon, Limits, default_indexing, telescope_n, verify
from logag.classical import Kernel
from logag.records import FrozenError

SRC = Path(__file__).parent.parent / "src"


def test_limits_built_by_keyword_equal_the_positional_record():
    by_keyword = Limits(depth_cap=4, atom_cap=256)
    assert by_keyword == Limits(256, 20, 4, 4096, 64) == Limits(256, depth_cap=4)
    assert hash(by_keyword) == hash((256, 20, 4, 4096, 64))
    assert repr(by_keyword) == "Limits(atom_cap=256, kernel_cap=20, depth_cap=4, subset_cap=4096, level_cap=64)"
    assert by_keyword != DEFAULT_LIMITS and Limits() == DEFAULT_LIMITS
    assert Limits.__match_args__ == ("atom_cap", "kernel_cap", "depth_cap", "subset_cap", "level_cap")


def test_canon_built_by_keyword_equals_the_positional_record():
    by_keyword = Canon(level=3, oplus="max", otimes="sum")
    assert by_keyword == Canon("sum", "max", 3) == Canon("sum", oplus="max", level=3)
    assert by_keyword != Canon("sum", "max", 4) and by_keyword != Canon("sum", "min", 3)
    assert hash(by_keyword) == hash(("sum", "max", 3))
    assert repr(by_keyword) == "Canon(otimes='sum', oplus='max', level=3)"
    assert by_keyword.__eq__(("sum", "max", 3)) is NotImplemented
    with pytest.raises(ValueError, match="unknown otimes"):
        Canon(otimes="product", oplus="max", level=1)  # __post_init__ runs by keyword too
    with pytest.raises(ValueError, match="level"):
        Canon("sum", "max", -1)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("sum", "max"), {}, "missing argument 'level'"),
        (("sum", "max", 1, 2), {}, "takes 3 arguments but 4 were given"),
        (("sum", "max", 1), {"depth": 2}, "unexpected keyword argument 'depth'"),
        (("sum", "max"), {"level": 1, "otimes": "sum"}, "unexpected keyword argument 'otimes'"),
    ],
)
def test_a_record_refuses_a_call_that_does_not_give_each_field_once(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Canon(*args, **kwargs)


def test_records_are_frozen():
    canon, limits = Canon("sum", "max", 1), Limits()
    for rec, name in ((canon, "level"), (limits, "atom_cap"), (canon, "extra"), (canon, "_hash")):
        with pytest.raises(FrozenError):
            setattr(rec, name, 0)
        with pytest.raises(FrozenError):
            delattr(rec, name)
    assert (canon.level, limits.atom_cap) == (1, 24)


def test_records_survive_copies_and_pickles(penguin_rules, penguin_rules_theory):
    limits = Limits(atom_cap=256)
    trace = telescope_n(penguin_rules_theory, Canon("sum", "max", 3), (), limits)
    structure, report1, report2 = verify(penguin_rules, default_indexing(penguin_rules), limits)[-1]
    kernel = next(k for record in trace.levels for k in record.kernels)
    samples = [
        limits, trace.context.canon, penguin_rules_theory, trace.levels[1], kernel,
        penguin_rules, penguin_rules.rules[0], structure, report1, report2, default_indexing(penguin_rules),
    ]
    assert isinstance(kernel, Kernel)
    for rec in samples:
        assert not hasattr(rec, "__dict__")
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec)
            assert not hasattr(twin, "__dict__")
        # a rebuilt frozenset may list equal members in another order
        assert repr(copy.copy(rec)) == repr(rec)
    universe = trace.context.universe
    twin = pickle.loads(pickle.dumps(universe))
    assert twin.terms == universe.terms and twin.shared == universe.shared


@pytest.mark.parametrize("module", ["logag", "logag.cli"])
def test_importing_the_package_loads_neither_dataclasses_nor_inspect(module):
    # -S keeps site-packages' start-up hooks out of the count
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect', 'typing'}} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
