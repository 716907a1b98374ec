"""Module layering of kcat0, read from the source's syntax tree.

The import order is points/errors -> interval -> planar -> domains ->
metric -> cat0 -> ...: every node answers for itself in ``domains``, so
the engine modules above it never ask which node they hold nor compute a
node's distance from its chart, and no module reaches a sibling through
an import hidden in a function body.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kcat0 import (
    AffineImage,
    Ball,
    DefiningFunction,
    Graph,
    PlanarOracle,
    Product,
    RealPolynomial,
    distance,
    domains,
    example36_domain,
    infinitesimal,
    intersection,
    metric,
    midpoint_defect,
    midpoint_search,
    unit_disk,
)

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


def _node_classes() -> set[str]:
    """The classes of domains.py that derive from ConvexDomain."""
    bases = {n.name: {getattr(b, "id", None) for b in n.bases}
             for n in _tree(SRC / "domains.py").body if isinstance(n, ast.ClassDef)}
    nodes = {"ConvexDomain"}
    while new := {c for c, named in bases.items() if named & nodes} - nodes:
        nodes |= new
    return nodes - {"ConvexDomain"}


def test_metric_names_no_domain_class():
    # the sandwich asks each node, never which node it holds: metric.py
    # imports no node class and tests no domains class with isinstance
    tree = _tree(SRC / "metric.py")
    imported = {a.name for n in tree.body if isinstance(n, ast.ImportFrom)
                and n.module == "domains" for a in n.names}
    tested = {getattr(m, "id", None) or getattr(m, "attr", None) for n in ast.walk(tree)
              if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
              for m in ast.walk(n.args[1])}
    assert {"Graph", "PlanarOracle", "Disk"} <= _node_classes()
    assert imported & _node_classes() == set()
    assert tested & (_node_classes() | {"ConvexDomain"}) == set()


def test_no_node_declares_fast_delta_dir():
    # the closed-form flag only fed the automatic path optimizer, which is gone
    assert [p.name for p in sorted(SRC.glob("*.py")) if "fast_delta_dir" in p.read_text()] == []


def test_oracle_set_caches_nothing():
    # nodes are immutable after construction: an oracle set's attributes are
    # as they were after its anchor, a boundary distance and a distance
    O = PlanarOracle(lambda T: np.abs(T - 0.2) < 1.0)
    before = dict(vars(O))
    O.anchor()
    O.delta([0.5])
    distance(O, [0.1j], [0.6])
    assert vars(O) == before


def test_graph_infinitesimal_runs_no_least_ray_search(monkeypatch):
    # both bounds of a graph's (and an oracle set's) infinitesimal metric come
    # from one ray shot within the complex line: no grid and compass search
    calls, real = [], domains.ray_min_batch
    monkeypatch.setattr(domains, "ray_min_batch", lambda *args: calls.append(args) or real(*args))
    G = Graph(DefiningFunction.from_polynomial(RealPolynomial(2, {
        (2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 2.0, (0, 0, 0, 2): 2.0,
        (0, 0, 0, 0): -1.0})), interior_point=[0.0, 0.0])
    for D, z, v in [(G, [0.1, 0.2j], [1.0, 0.5j]),
                    (PlanarOracle(lambda T: np.abs(T - 0.2) < 1.0), [0.1j], [1.0])]:
        iv = infinitesimal(D, z, v)
        assert 0.0 < iv.lo < iv.hi < np.inf
    assert calls == []
    G.delta_dir([0.1, 0.2j], [1.0, 0.5j])   # the least-ray search is still there, and seen
    assert len(calls) == 1


def test_default_distance_runs_no_path_optimizer(monkeypatch):
    # the optimizer runs only when a caller asks for it, even on a domain
    # whose slices have no closed form
    def refuse(*args, **kwargs):
        raise AssertionError("a default distance ran the path optimizer")

    monkeypatch.setattr(metric, "geodesic_approx", refuse)
    D = intersection([Ball([0.5, 0], 1), Ball([0, 0.5], 1), Ball([0.3, 0.3], 0.9)])
    iv = distance(D, [0.1 + 0.2j, 0.3 - 0.1j], [0.5 - 0.2j, -0.1 + 0.3j])
    assert "inscribed-disk" in iv.methods and iv.hi <= 1.7


def test_numeric_midpoints_run_no_path_optimizer(monkeypatch):
    # a numeric midpoint is the slice witness's geodesic midpoint: the lens
    # slice of the large-n pair, the inscribed disk of a three-ball pair
    def refuse(*args, **kwargs):
        raise AssertionError("a numeric midpoint ran the path optimizer")

    monkeypatch.setattr(metric, "geodesic_approx", refuse)
    big = AffineImage(1e6 * np.eye(2), np.zeros(2), example36_domain())
    m, eta = midpoint_search(big, [1.0, 1.0], [4.0, 1.0])
    assert m[0].real == pytest.approx(2.0000049, abs=1e-7) and 0.0 < eta <= 5e-2
    three = intersection([Ball([0.5, 0], 1), Ball([0, 0.5], 1), Ball([0.3, 0.3], 0.9)])
    _, eta = midpoint_search(three, [0.1 + 0.2j, 0.3 - 0.1j], [0.5 - 0.2j, -0.1 + 0.3j], tol=1.0)
    assert 0.0 < eta < 0.5


def test_projection_lower_runs_no_path_optimizer(monkeypatch):
    # the factors' distances give the projection bound their lo alone, which
    # the optimizer never raises: only the product's own sandwich runs it
    D = Product(intersection([Ball([0.5, 0], 1), Ball([0, 0.5], 1), Ball([0.3, 0.3], 0.9)]),
                unit_disk())
    x, y = [0.1 + 0.2j, 0.3 - 0.1j, 0.1], [0.5 - 0.2j, -0.1 + 0.3j, -0.2j]
    calls = []
    real = metric.geodesic_approx

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(metric, "geodesic_approx", counted)
    iv = distance(D, x, y, force_sandwich=True, optimize_path=True)
    assert calls == [D]
    assert iv.lo == distance(D, x, y, force_sandwich=True).lo


def _counted(monkeypatch, name: str) -> list:
    """The argument tuples of every call of the metric helper ``name``."""
    calls, real = [], getattr(metric, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(metric, name, counted)
    return calls


def test_a_certificate_bounds_each_pair_once(monkeypatch):
    # one sandwich on (x, y) gives the witness, eta's lo and d_xy; then
    # (x, m), (m, y), (z, x), (z, y) and (z, m), each on the inner omega
    calls = _counted(monkeypatch, "_slice_upper")
    big = AffineImage(1e6 * np.eye(2), np.zeros(2), example36_domain())
    cert = midpoint_defect(big, [1.0, 1.0], [4.0, 1.0], [2.0, 2.0], tol=5e-2)
    assert cert.verdict == "violation-certified"
    pairs = {(x.tobytes(), y.tobytes()) for _, x, y in calls}
    assert (len(calls), len(pairs)) == (6, 6)


def test_distance_checks_its_points_once(monkeypatch):
    # omega's member projections run on the points distance has checked
    calls = _counted(monkeypatch, "_require_inside")
    iv = distance(example36_domain(), [0.2, 0.2], [0.5, 0.4])
    assert "projection-lower" in iv.methods
    assert len(calls) == 1


def _slice_calls(fn: ast.AST) -> list[int]:
    """Lines in ``fn`` that call a ``.slice(`` method."""
    return [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "slice"]


def test_slices_check_their_points_once():
    # ``slice`` is the validated view: composites recurse through the
    # unchecked ``_slice_set``, and the sandwich, which holds checked points,
    # calls it directly
    inner = [f"{c}:{line}" for (c, name), fn in _domain_methods().items()
             if name == "_slice_set" for line in _slice_calls(fn)]
    assert inner == []
    assert _slice_calls(_tree(SRC / "metric.py")) == []
    assert "_slice_set" in {getattr(n.func, "attr", None) for n in ast.walk(_tree(SRC / "metric.py"))
                            if isinstance(n, ast.Call)}


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


def test_euclidean_distance_has_one_implementation_per_node():
    # each node answers delta in delta_batch; ConvexDomain.delta is its
    # validated one-row view, and the planar default of delta_dir_batch
    # hands all its rows to delta_batch
    methods = _domain_methods()
    assert [c for c, name in methods if name == "delta"] == ["ConvexDomain"]
    assert [c for c, name in methods if name == "_delta"] == []
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp)
    assert not any(isinstance(n, loops) for n in ast.walk(methods["ConvexDomain", "delta_dir_batch"]))


def test_midpoint_search_runs_no_optimizer_of_its_own():
    # a numeric midpoint is the slice witness's geodesic midpoint, certified
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


def test_graph_supports_take_their_normals_from_one_batched_gradient():
    # every row's normal comes from one grad_batch: no grad call per row
    called = _static_calls(_tree(SRC / "domains.py"), "Graph", "supporting_half_planes")
    assert "grad_batch" in called
    assert "grad" not in called


def _static_calls(tree: ast.Module, cls: str | None, method: str) -> set[str]:
    """Names called from ``cls.method`` (the module function ``method`` when
    ``cls`` is None) and, transitively, from the module functions it calls
    by name, the methods it calls on ``self``, looked up in ``cls`` and
    then its bases in the module, and the methods it calls on ``super()``,
    looked up from the base of the class that defines the caller."""
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    owners = {id(f): c for c, node in classes.items() for f in node.body if isinstance(f, ast.FunctionDef)}

    def base(owner):
        return next((b.id for b in classes[owner].bases if isinstance(b, ast.Name)), None)

    def lookup(name, owner=cls):
        while owner in classes:
            found = [f for f in classes[owner].body if isinstance(f, ast.FunctionDef) and f.name == name]
            if found:
                return found[0]
            owner = base(owner)
        return None

    todo, seen, called = [lookup(method) if cls else functions.get(method)], set(), set()
    while todo:
        fn = todo.pop()
        if fn is None or id(fn) in seen:
            continue
        seen.add(id(fn))
        for n in ast.walk(fn):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
                called.add(n.func.id)
                todo.append(functions.get(n.func.id))
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                called.add(n.func.attr)
                target = n.func.value
                if isinstance(target, ast.Name) and target.id == "self":
                    todo.append(lookup(n.func.attr))
                elif isinstance(target, ast.Call) and getattr(target.func, "id", None) == "super":
                    todo.append(lookup(n.func.attr, base(owners[id(fn)])))
    return called


@pytest.mark.parametrize("cls, method", [
    ("PlanarOracle", "delta_batch"), ("PlanarOracle", "delta_dir_batch"),
    ("AffineImage", "delta_batch"), ("Graph", "delta_batch"), ("ConvexDomain", "delta_dir_batch")])
def test_least_ray_distances_run_no_optimizer(cls, method):
    # a boundary distance known only through membership is one search,
    # ray_min_batch, whatever the span of directions: no scipy optimizer
    called = _static_calls(_tree(SRC / "domains.py"), cls, method)
    assert "ray_min_batch" in called
    assert not {name for name in called if "minimize" in name}


def test_static_calls_follow_super():
    # a non-conformal affine image's delta is the base class's least ray
    called = _static_calls(_tree(SRC / "domains.py"), "AffineImage", "delta_batch")
    assert {"super", "ray_min_batch", "ray_exit_batch"} <= called


def test_membership_only_answers_live_on_the_base_node():
    # the least ray over C^d and the slice hull are ConvexDomain's defaults:
    # graphs and oracle sets bind no metric and no delta of their own, and an
    # intersection's smoothed upper metric is its metric's hi
    assert domains.ConvexDomain.metric_bounds is domains.ray_metric_bounds
    assert [c.__name__ for c in (Graph, PlanarOracle) if "metric_bounds" in vars(c)] == []
    assert [c.__name__ for c in (Graph, PlanarOracle) if "delta_batch" in vars(c)] == []
    assert "metric_hi_smooth" not in vars(domains.Intersection)
    assert "gradient" not in vars(RealPolynomial)


def test_every_ray_shot_goes_through_a_node_exit():
    # the membership bisection is one node's exit, the default
    # ConvexDomain.ray_exit_batch, and no shot takes a guessed start
    callers, guesses = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        guesses += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                    if "guess" in {getattr(n, "arg", None), getattr(n, "id", None)}]
        for owner in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            for fn in owner.body:
                if isinstance(fn, ast.FunctionDef):
                    callers += [(path.name, getattr(owner, "name", None), fn.name) for n in ast.walk(fn)
                                if isinstance(n, ast.Call)
                                and "ray_boundary_batch" in {getattr(n.func, "id", None),
                                                             getattr(n.func, "attr", None)}]
    assert guesses == []
    assert callers == [("domains.py", "ConvexDomain", "ray_exit_batch")]


@pytest.mark.parametrize("module, cls, method", [("metric.py", None, "_product_inclusion_upper")] + [
    ("domains.py", cls, "polydisk_growth") for cls in sorted(NODE_CLASSES - {"Polydisk"})])
def test_inscribed_polydisks_run_no_optimizer(module, cls, method):
    # the inclusion bound is one fixed family grown in closed form: no
    # search over polydisks, and no optimizer behind any node's growth
    called = _static_calls(_tree(SRC / module), cls, method)
    assert not {name for name in called if name and "minimize" in name}


def test_inclusion_bound_grows_its_polydisks_in_one_call():
    # each node's containment is linear in the radii (quadratic on a ball),
    # so one polydisk_growth call gives every row's growth: no loop searches it
    fn = next(n for n in _tree(SRC / "metric.py").body
              if isinstance(n, ast.FunctionDef) and n.name == "_product_inclusion_upper")
    assert not any(isinstance(n, (ast.For, ast.While, ast.comprehension)) for n in ast.walk(fn))
    assert [n.func.attr for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "polydisk_growth"] == ["polydisk_growth"]


def test_intersection_anchor_runs_no_optimizer():
    # a thin intersection's anchor is the centroid of seeded ring points
    # inside it, interior by convexity: no search for a deep point
    called = _static_calls(_tree(SRC / "domains.py"), "Intersection", "anchor")
    assert not {name for name in called if name and "minimize" in name}


def test_polydisk_rooms_stay_gone():
    assert [path.name for path in sorted(SRC.glob("*.py")) if "polydisk_room" in path.read_text()] == []


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
    paths = sorted(SRC.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py"))
    unused = [hit for path in paths if path.name != "__init__.py" for hit in _unused_imports(path)]
    assert unused == []


def test_import_leaves_no_full_collection_due():
    # the import collects its own young objects, so the collector's older
    # generations start from zero rather than falling due in the first queries
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", "import gc, kcat0; print(*gc.get_count()[1:])"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "0"]
