"""The benchmark's span recorder wraps besov_rough functions by name.

`perfbench/spans.py` lists its targets as (module, attribute path) pairs and
looks methods up in the class `__dict__`; a renamed or deleted target would
make every traced benchmark pass fail, so each one is resolved here.  The
test only reads `perfbench/spans.py`.
"""
import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for mod_name, attr, _, _ in targets:
        owner = importlib.import_module(f"besov_rough.{mod_name}")
        cls_name, _, last = attr.rpartition(".")
        if cls_name:
            found = last in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, last, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
