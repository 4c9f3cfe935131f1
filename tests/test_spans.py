"""The benchmark's span sites still name callables in the package.

``perfbench/spans.py`` wraps each ``SITES`` entry at the attribute its caller
resolves; a renamed function or a trimmed ``ACTIVATIONS`` entry would only
show as a failed traced run. The module is read and executed in memory, so
the benchmark's directory is left as it is (no bytecode is written there)."""

import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module,path,name,owner", SPANS.SITES,
                         ids=[f"{m}:{p}" for m, p, _, _ in SPANS.SITES])
def test_site_resolves_to_callable(module, path, name, owner):
    container, key, is_mapping = SPANS._resolve(module, path)
    target = container[key] if is_mapping else getattr(container, key)
    assert callable(target), f"{module}.{path} ({name}) is not callable"
