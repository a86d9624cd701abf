"""Rule family ``hash-order``: sources of run-to-run nondeterminism.

Three shipped bugs motivate this family: ``Structure.nodes`` iterated a set
of ``StructNode`` objects (address hashes -> per-process order), Contract's
absorbed-path set did the same, and ``WeakOracle.query_bipartite`` scanned
``neighbor_list`` in storage-dependent order.  All three produced seeded runs
that diverged between processes or storage layouts; all three were found by
hand, after the fact.

The checker flags *order-sensitive consumption* of values that are
statically known to be ``set``/``frozenset``:

* syntactically: set literals/comprehensions, ``set(...)``/``frozenset(...)``
  calls and ``.union/.intersection/.difference/.symmetric_difference`` of a
  known set;
* via annotations: names, parameters and ``self.`` attributes annotated
  ``Set[...]``/``FrozenSet[...]`` (including one container unwrap, so
  ``self._adj: List[Set[int]]`` makes ``self._adj[u]`` a set);
* via simple local inference (``x = set(...)`` makes ``x`` a set for the
  rest of the function).

Order-sensitive sinks: ``for``/comprehension iteration, ``list``/``tuple``/
``enumerate``/``iter`` conversion, ``min``/``max`` arguments and bare
``.pop()``.  Order-*insensitive* consumption (``sorted``, ``sum``, ``len``,
``any``, ``all``, membership, building another set) is deliberately not
flagged -- ``sorted(s)`` is the idiomatic fix, not a violation.  Dict views
are insertion-ordered in CPython and are likewise exempt (their order hazard
reduces to the determinism of the inserts, which these rules cover at the
insert site).

Two sibling rules complete the family: ``id-order`` (``id`` used inside a
``key=`` of ``sorted``/``min``/``max``/``.sort`` -- address ordering is never
reproducible) and ``unseeded-random`` (module-level ``random.*`` /
``numpy.random.*`` draws outside :mod:`repro.utils.seeding`, which bypass
every seed the harness pins).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: packages whose algorithm code must be seed-deterministic
ALGORITHM_PACKAGES = ("core", "dynamic", "mpc", "congest", "matching",
                      "graph")

_SET_BASES = {"Set", "FrozenSet", "AbstractSet", "MutableSet", "set",
              "frozenset"}
_CONTAINER_BASES = {"List", "Sequence", "Tuple", "Dict", "Mapping",
                    "DefaultDict", "defaultdict", "list", "tuple", "dict"}
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference", "copy"}
_RANDOM_DRAWS = {
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes",
}
#: numpy.random attributes that *construct seeded streams* rather than draw
_NP_RANDOM_SAFE = {"default_rng", "Generator", "RandomState", "SeedSequence",
                   "PCG64", "Philox", "MT19937", "SFC64", "BitGenerator"}


def _annotation_kind(node: Optional[ast.expr]) -> Optional[str]:
    """Classify an annotation: "set", "container-of-set" or None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return "set" if node.id in _SET_BASES else None
    if isinstance(node, ast.Attribute):  # typing.Set / t.Set
        return "set" if node.attr in _SET_BASES else None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = (base.id if isinstance(base, ast.Name)
                     else base.attr if isinstance(base, ast.Attribute)
                     else None)
        args = node.slice
        arg_list = (list(args.elts) if isinstance(args, ast.Tuple)
                    else [args])
        if base_name in _SET_BASES:
            return "set"
        if base_name == "Optional":
            return _annotation_kind(arg_list[0]) if arg_list else None
        if base_name in _CONTAINER_BASES:
            # the element/value type is the last subscript argument
            # (List[Set[int]] -> Set[int]; Dict[int, Set[int]] -> Set[int])
            if arg_list and _annotation_kind(arg_list[-1]) == "set":
                return "container-of-set"
    return None


class _ClassSetAttrs(ast.NodeVisitor):
    """Collect ``self.<attr>`` annotation kinds for one class body."""

    def __init__(self) -> None:
        self.kinds: Dict[str, str] = {}

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        target = node.target
        kind = _annotation_kind(node.annotation)
        if kind:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                self.kinds[target.attr] = kind
            elif isinstance(target, ast.Name):  # class-level declaration
                self.kinds[target.id] = kind
        self.generic_visit(node)


class _Env:
    """Name -> kind lookup for one function (plus enclosing class attrs)."""

    def __init__(self, class_attrs: Dict[str, str]) -> None:
        self.names: Dict[str, str] = {}
        self.class_attrs = class_attrs

    def kind_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return self.class_attrs.get(node.attr)
        if isinstance(node, ast.Subscript):
            if self.kind_of(node.value) == "container-of-set":
                return "set"
        return None


def _is_set_expr(node: ast.expr, env: _Env) -> bool:
    """Is ``node`` statically known to produce a set/frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
                and _is_set_expr(func.value, env)):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, env)
                or _is_set_expr(node.right, env))
    if isinstance(node, ast.IfExp):
        return (_is_set_expr(node.body, env)
                or _is_set_expr(node.orelse, env))
    return env.kind_of(node) == "set"


def _uses_id(node: ast.expr) -> bool:
    """Does a ``key=`` expression order by ``id``?"""
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"):
            return True
    return False


class _FunctionChecker(ast.NodeVisitor):
    """Flag order-sensitive set consumption within one scope."""

    def __init__(self, source, env: _Env, out: List[Finding]) -> None:
        self.source = source
        self.env = env
        self.out = out

    # --------------------------------------------------- local inference
    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        kind = _annotation_kind(node.annotation)
        if kind and isinstance(node.target, ast.Name):
            self.env.names[node.target.id] = kind
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.env):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.names[target.id] = "set"
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        # nested scopes are checked by the module driver; don't descend
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    # --------------------------------------------------------------- sinks
    def _flag(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.out.append(self.source.finding(rule_id, node, message))

    def _check_iter(self, iter_node: ast.expr, node: ast.AST,
                    what: str) -> None:
        if _is_set_expr(iter_node, self.env):
            self._flag("set-iteration", node,
                       f"{what} iterates a set -- iteration order is "
                       "hash/history-dependent; use a canonical order "
                       "(sorted(...), insertion-ordered container)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node, what: str) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node, what)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, "generator expression")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building a set from a set is order-insensitive; still infer inside
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("list", "tuple", "enumerate", "iter") and node.args:
                self._check_iter_call(func.id, node)
            elif func.id in ("min", "max"):
                for arg in node.args:
                    if _is_set_expr(arg, self.env):
                        self._flag(
                            "set-minmax", node,
                            f"{func.id}() over a set -- ties resolve in "
                            "iteration order; justify or canonicalise first")
                self._check_key_kwarg(func.id, node)
            elif func.id == "sorted":
                self._check_key_kwarg("sorted", node)
        elif isinstance(func, ast.Attribute):
            if (func.attr == "pop" and not node.args
                    and _is_set_expr(func.value, self.env)):
                self._flag("set-pop", node,
                           "set.pop() removes an arbitrary (hash-order) "
                           "element; pop from a canonical order instead")
            elif func.attr == "sort":
                self._check_key_kwarg("sort", node)
        self.generic_visit(node)

    def _check_iter_call(self, name: str, node: ast.Call) -> None:
        if _is_set_expr(node.args[0], self.env):
            self._flag("set-iteration", node,
                       f"{name}() materialises a set in hash/history order; "
                       "use sorted(...) or an insertion-ordered container")

    def _check_key_kwarg(self, name: str, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg == "key" and _uses_id(kw.value):
                self._flag("id-order", node,
                           f"{name}(key=id...) orders by object address -- "
                           "never reproducible across processes")


# ---------------------------------------------------------------------------
# module drivers
# ---------------------------------------------------------------------------

def _class_attr_map(tree: ast.Module) -> Dict[str, Dict[str, str]]:
    out: Dict[str, Dict[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            collector = _ClassSetAttrs()
            collector.visit(node)
            out[node.name] = collector.kinds
    return out


def _iter_scopes(tree: ast.Module):
    """Yield (scope_node, enclosing_class_name_or_None, body) pairs."""
    yield tree, None, tree.body
    stack = [(node, None) for node in tree.body]
    while stack:
        node, klass = stack.pop()
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                stack.append((child, node.name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, klass, node.body
            for child in node.body:
                stack.append((child, klass))
        elif hasattr(node, "body"):
            for child in getattr(node, "body", []):
                stack.append((child, klass))
            for child in getattr(node, "orelse", []):
                stack.append((child, klass))
            for child in getattr(node, "finalbody", []):
                stack.append((child, klass))


@rule("set-iteration", family="hash-order",
      summary="order-sensitive iteration over a set/frozenset")
def check_set_iteration(source) -> Iterator[Finding]:
    return _run_set_checker(source)


@rule("set-pop", family="hash-order",
      summary="set.pop() of an arbitrary element")
def check_set_pop(source) -> Iterator[Finding]:
    return iter(())  # reported by the shared set checker under its own id


@rule("set-minmax", family="hash-order",
      summary="min()/max() directly over a set")
def check_set_minmax(source) -> Iterator[Finding]:
    return iter(())  # reported by the shared set checker under its own id


@rule("id-order", family="hash-order",
      summary="sort/min/max keyed by id() (address ordering)")
def check_id_order(source) -> Iterator[Finding]:
    return iter(())  # reported by the shared set checker under its own id


def _run_set_checker(source) -> Iterator[Finding]:
    """One AST walk emits all four structural hash-order rule ids."""
    if source.tree is None or not source.in_packages(*ALGORITHM_PACKAGES):
        return iter(())
    class_attrs = _class_attr_map(source.tree)
    out: List[Finding] = []
    for scope, klass, _body in _iter_scopes(source.tree):
        env = _Env(class_attrs.get(klass or "", {}))
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                kind = _annotation_kind(arg.annotation)
                if kind:
                    env.names[arg.arg] = kind
            checker = _FunctionChecker(source, env, out)
            for stmt in scope.body:
                checker.visit(stmt)
        else:  # module top level
            checker = _FunctionChecker(source, env, out)
            for stmt in source.tree.body:
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                    checker.visit(stmt)
    return iter(out)


@rule("unseeded-random", family="hash-order",
      summary="module-level random/np.random draw outside repro.utils.seeding")
def check_unseeded_random(source) -> Iterator[Finding]:
    if source.tree is None or source.module == "repro.utils.seeding":
        return iter(())
    random_names: Set[str] = set()
    numpy_names = source.numpy_names()
    direct_draws: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_names.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name in _RANDOM_DRAWS:
                        direct_draws.add(alias.asname or alias.name)
            elif node.module == "numpy" and any(
                    alias.name == "random" for alias in node.names):
                for alias in node.names:
                    if alias.name == "random":
                        random_names.add(alias.asname or "random")

    out: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id in direct_draws):
            out.append(source.finding(
                "unseeded-random", node,
                f"{func.id}() draws from the process-global random stream; "
                "thread a seeded rng from repro.utils.seeding instead"))
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name) and base.id in random_names
                    and func.attr in _RANDOM_DRAWS):
                out.append(source.finding(
                    "unseeded-random", node,
                    f"random.{func.attr}() draws from the process-global "
                    "stream; thread a seeded rng from repro.utils.seeding"))
            elif (isinstance(base, ast.Attribute) and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in numpy_names
                    and func.attr not in _NP_RANDOM_SAFE):
                out.append(source.finding(
                    "unseeded-random", node,
                    f"numpy.random.{func.attr}() uses the global numpy "
                    "state; use numpy.random.default_rng(seed)"))
    return iter(out)
