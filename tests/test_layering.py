"""Module layering of kcat0, read from the source's syntax tree.

The import order is points/errors -> interval -> planar -> domains ->
metric -> cat0 -> ...: every node answers for itself in ``domains``, so
the engine modules above it never ask which node they hold nor compute a
node's distance from its chart, and no module reaches a sibling through
an import hidden in a function body.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kcat0"
NODE_CLASSES = {"Disk", "HalfPlane", "Sector", "Ball", "Product", "Polydisk",
                "AffineImage", "Intersection"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _kcat0_targets(node: ast.AST) -> list[str]:
    """Sibling modules an import statement names (empty for other packages)."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module] if node.module else [a.name for a in node.names]
        if (node.module or "").split(".")[0] == "kcat0":
            return [node.module]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "kcat0"]
    return []


def test_no_function_body_imports_a_kcat0_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{n.lineno}" for n in ast.walk(fn) if _kcat0_targets(n)]
    assert found == []


def test_module_imports_form_no_cycle():
    graph = {path.stem: {t.split(".")[-1] for n in _tree(path).body for t in _kcat0_targets(n)}
             for path in SRC.glob("*.py")}
    done, path = set(), []

    def visit(mod):
        assert mod not in path, " -> ".join(path + [mod])
        if mod in done or mod not in graph:
            return
        path.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        path.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


@pytest.mark.parametrize("module", ["metric.py", "planar.py", "cat0.py"])
def test_engine_modules_do_not_dispatch_on_node_classes(module):
    hits = []
    for node in ast.walk(_tree(SRC / module)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(node.args[1])}
            if names & NODE_CLASSES:
                hits.append(f"{module}:{node.lineno}")
    assert hits == []


def test_metric_holds_no_chart_arithmetic():
    # exact planar distances come from the nodes' own exact_distance
    text = (SRC / "metric.py").read_text()
    assert [w for w in (".chart(", "exact_chart", "disk_distance", ".forward(") if w in text] == []


def test_disk_model_chart_helpers_stay_gone():
    # charts map onto the upper half-plane and carry no derivative: metrics
    # are the nodes' closed forms, geodesics walk half_plane_geodesic
    defs = {n.name: n for path in (SRC / "planar.py", SRC / "domains.py")
            for n in _tree(path).body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    gone = {"cayley", "mobius_to_zero", "mobius_from_zero", "disk_geodesic",
            "_arc_sample", "_closure_contains"}
    assert sorted(gone & set(defs)) == []
    fields = [n.target.id for n in defs["ConformalChart"].body if isinstance(n, ast.AnnAssign)]
    methods = [n.name for n in defs["ConformalChart"].body if isinstance(n, ast.FunctionDef)]
    assert (fields, methods) == (["forward", "inverse", "tag"], [])


def _domain_methods() -> dict:
    classes = {n.name: n for n in ast.walk(_tree(SRC / "domains.py")) if isinstance(n, ast.ClassDef)}
    return {(c, f.name): f for c, node in classes.items() for f in node.body
            if isinstance(f, ast.FunctionDef)}


def test_membership_has_one_implementation_per_node():
    # each node answers membership in contains_batch; ConvexDomain._contains
    # is its one-row view and ConvexDomain.contains_batch holds no row loop
    methods = _domain_methods()
    assert [c for c, name in methods if name == "_contains" and c != "ConvexDomain"] == []
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp)
    assert not any(isinstance(n, loops) for n in ast.walk(methods["ConvexDomain", "contains_batch"]))


def test_directional_distance_has_one_implementation_per_node():
    # each node answers delta_dir in delta_dir_batch; ConvexDomain.delta_dir
    # is its validated one-row view, which the default batch never calls
    methods = _domain_methods()
    assert [c for c, name in methods if name == "delta_dir"] == ["ConvexDomain"]
    called = {n.func.attr for n in ast.walk(methods["ConvexDomain", "delta_dir_batch"])
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert "delta_dir" not in called


def test_midpoint_search_runs_no_optimizer_of_its_own():
    # a numeric midpoint is the optimized path's half-length point, certified
    # by its CN radius; nothing refines it
    fn = next(n for n in _tree(SRC / "metric.py").body
              if isinstance(n, ast.FunctionDef) and n.name == "midpoint_search")
    called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
              for n in ast.walk(fn) if isinstance(n, ast.Call)}
    assert "minimize" not in called


def _reachable_calls(tree: ast.Module, cls: str, method: str) -> set[str]:
    """Names called from ``cls.method`` and, transitively, from every
    function or method of the module that shares a called name."""
    defs: dict[str, list] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
    owner = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    todo = [next(n for n in owner.body if isinstance(n, ast.FunctionDef) and n.name == method)]
    seen, called = set(), set()
    while todo:
        fn = todo.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for n in ast.walk(fn):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                called.add(name)
                todo.extend(defs.get(name, []))
    return called


def test_graph_supports_run_no_optimizer():
    # a graph's supports are tangent planes at ray hits, certified by the
    # convexity of r; no optimizer stands behind them, and no per-functional
    # support_upper overrides the +inf batch
    called = _reachable_calls(_tree(SRC / "domains.py"), "Graph", "supporting_half_planes")
    # any alias: the optimizers are imported as ``minimize as _minimize``
    assert not {name for name in called if name and "minimize" in name}
    assert ("Graph", "support_upper") not in _domain_methods()


def _unused_imports(path: Path) -> list[str]:
    """Names a module-level import binds that nothing else in the module reads."""
    tree = _tree(path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_imports():
    # __init__.py imports in order to re-export
    unused = [hit for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for hit in _unused_imports(path)]
    assert unused == []
