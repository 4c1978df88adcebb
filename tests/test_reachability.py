"""Every def under `src/besov_rough` is reached from an entry point, or is
kept on purpose with a reason.

The entry points are the CLI (`cli.py`), the acceptance suite
(`acceptance.py`) and the benchmark (`perfbench/*.py` except `spans.py`,
which wraps functions by name only to trace them).  The graph is built with
`ast` from names alone: a def is reached when a reached body mentions its
name, as a plain name or as an attribute.  Module-level statements run on
import, so they are reached, and so are the dunder methods of a reached
class.  Names are not resolved to their modules or classes, so the graph
over-approximates: a def that shares its name with a reached one
(`GridPath.band` and `TwoParamField.band`, say) passes.  What it reports is
unreachable for certain; what it passes may still be dead.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "besov_rough"
BENCH = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
         if p.name != "spans.py"]

# Defs that no entry point reaches but that stay: the reference code tests
# compare against, the inputs of tests of reachable code, and documented
# API.  `module.qualname` -> why it stays.
KEPT = {
    "cli.ExperimentConfig.to_json": "public config serialization",
    "controlled.compose_controlled":
        "oracle of the composition in the RDE's Picard sweep",
    "grid.GridPath.restrict": "input of the p-variation superadditivity test",
    "grid.TwoParamField.delta2": "the second difference of the sewing lemma",
    "grid.TwoParamField.delta2_bands": "band form of delta2, for delta2_norm",
    "grid.TwoParamField.materialize": "a perfbench/spans.py trace target",
    "grid.TwoParamField.to_dense": "public (n, n, m) view of a field, the "
                                   "oracle of the band access tests",
    "norms.delta2_norm": "the sewing lemma's hypothesis, in the remainder "
                         "bound test",
    "rough.RoughPath.restrict": "input of the RDE concatenation test",
    "rough.TensorElement.identity": "tensor algebra, the signature oracle",
    "rough.dilate_element": "input of the homogeneous_norm dilation test",
    "rough.fbm_covariance": "oracle of the fBm sampler",
    "rough.fbm_path": "the public fBm sampler",
    "rough.homogeneous_norm": "tensor algebra, the signature oracle",
    "rough.rough_besov_norm": "public rough-path Besov norm",
    "rough.tensor_exp": "tensor algebra, the signature oracle",
    "rough.tensor_inv": "tensor algebra, the signature oracle",
    "rough.tensor_mul": "tensor algebra, the signature oracle",
    "sewing.dyadic_riemann": "oracle of the sewn integral",
    "signals.dyadic_time_change": "input of the critical-case norm tests",
    "signals.loglog_signal": "input of the critical-case norm tests",
    "stochlab.DiscreteMartingale.as_path": "public view of a martingale",
    "stochlab.DiscreteMartingale.increments": "public view of a martingale",
    "stochlab.paraproduct": "oracle of the streamed paraproduct bands",
    "stochlab.square_function": "oracle of the stacked square functions",
    "young.VectorField.validate": "documented check of a user vector field",
}


def _names(nodes) -> set:
    """Every name and attribute mentioned under the given nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _graph():
    """(defs, roots).  `defs` maps each module-level function, class and
    method of the package, as `module.qualname`, to the names that reach it
    (its own, and its class's for a dunder method) and the names its body
    mentions.  `roots` are the names mentioned by module-level statements,
    which run on import (the CLI's `__main__` guard among them), and by the
    benchmark."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            qual = f"{path.stem}.{getattr(stmt, 'name', '')}"
            if isinstance(stmt, ast.FunctionDef):
                defs[qual] = ({stmt.name}, _names([stmt]))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, ast.FunctionDef)]
                defs[qual] = ({stmt.name}, _names(
                    [*stmt.decorator_list, *stmt.bases,
                     *(s for s in stmt.body if s not in methods)]))
                for s in methods:
                    dunder = s.name.startswith("__") and s.name.endswith("__")
                    defs[f"{qual}.{s.name}"] = (
                        {s.name, stmt.name} if dunder else {s.name},
                        _names([s]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names([stmt])
    for path in BENCH:
        roots |= _names([ast.parse(path.read_text())])
    return defs, roots


def _reached(defs, names, kept=()) -> set:
    """The defs reached from the given names and from the given defs."""
    reached = set(kept)
    seen = set(names).union(*(defs[qual][1] for qual in kept))
    todo = list(seen)
    while todo:
        name = todo.pop()
        for qual, (keys, body) in defs.items():
            if name in keys and qual not in reached:
                reached.add(qual)
                todo.extend(body - seen)
                seen |= body
    return reached


def test_every_def_is_reached_or_kept():
    defs, roots = _graph()
    kept = set(KEPT) & set(defs)
    assert sorted(set(defs) - _reached(defs, roots, kept)) == []


def test_every_kept_def_exists_and_is_unreachable():
    defs, roots = _graph()
    assert sorted(set(KEPT) - set(defs)) == []
    assert sorted(set(KEPT) & _reached(defs, roots)) == []
