"""The repository benchmark's call surface must keep resolving.

``bench/`` drives the library only through public names: the traced run
wraps every function in ``bench/tracing.py``'s ``TARGETS``, and
``bench/workloads.py`` builds its services, configs, jobs and fault
campaigns by keyword.  A change that renames or deletes one of those
names breaks the benchmark; this test makes it break the tier-1 suite
first, in well under a second.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.core.config import AbftConfig
from repro.faults.campaign import CampaignSpec
from repro.service.core import ServiceConfig
from repro.service.job import Job

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: classes ``bench/workloads.py`` constructs by keyword
CONSTRUCTED = {cls.__name__: cls for cls in (ServiceConfig, AbftConfig, Job, CampaignSpec)}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "target", tracing.TARGETS, ids=[f"{module}:{qualname}" for module, qualname, *_ in tracing.TARGETS]
)
def test_traced_target_resolves(target):
    module, qualname, _group, _op_of, _extra_of, only = target
    owner, attr, original = tracing._resolve(module, qualname)
    assert callable(original)
    # A method must be the class's own, not one it inherits: a traced
    # override that was deleted would otherwise resolve to its base.
    assert attr in vars(owner), f"{module}.{qualname} is not defined on its class"
    # A wrapper with no binding to replace would trace nothing, silently.
    assert tracing._bindings(module, qualname, original, only), f"{module}.{qualname} has no binding"


def _constructor_keywords() -> dict[tuple[str, str], int]:
    """``(class name, keyword) -> first line`` of the keyword calls in workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    found: dict[tuple[str, str], int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in CONSTRUCTED:
            for kw in node.keywords:
                if kw.arg is not None:
                    found.setdefault((node.func.id, kw.arg), node.lineno)
    return found


KEYWORDS = _constructor_keywords()


def test_workloads_construct_every_class():
    assert {name for name, _ in KEYWORDS} == set(CONSTRUCTED)


@pytest.mark.parametrize("name,keyword", sorted(KEYWORDS), ids=[f"{n}.{k}" for n, k in sorted(KEYWORDS)])
def test_workload_keyword_is_a_field(name, keyword):
    fields = {f.name for f in dataclasses.fields(CONSTRUCTED[name])}
    line = KEYWORDS[name, keyword]
    assert keyword in fields, f"bench/workloads.py:{line} passes {keyword}= to {name}, which has no such field"
