"""Rule family ``parallel-safety``: code that diverges across a process boundary.

The bench runner ships each scenario to a process pool
(``pool.submit(run_spec_task, task)``).  Two bug classes behave fine in one
process and silently diverge (or crash) once work crosses a pickling
boundary:

* ``exec-escape`` -- a callable shipped through an executor seam
  (``executor.map(fn, tasks)`` / ``pool.submit(fn, task)``) that cannot
  cross a process boundary: lambdas and locally defined functions never
  pickle, and module-level workers whose *default arguments* construct
  unpicklable state (locks, open files, generators, ``Graph``/simulator
  instances) pickle the reference but re-create divergent state per worker.
* ``global-write`` -- a function reachable from a pool worker (the
  ``run_*_task``/``run_*_chunk`` workers plus anything shipped at a seam in
  the same module, closed over same-module calls exactly like
  ``memo_contracts``' fixpoint) that writes module globals or attributes of
  module-level bindings.  Worker-side writes never propagate back, so the
  serial and pooled runs read different state.

All checks are stdlib-``ast`` only; like every rule here, a justified
``# repro: allow[...]`` pragma documents the intentional exceptions.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: substrings of a receiver-chain name that mark an executor ship site
_SEAM_RECEIVER_MARKERS = ("executor", "pool")
#: attribute calls that ship their first positional argument to workers
_SEAM_METHODS = ("map", "submit")

#: constructors whose results never survive a process boundary usefully
_UNPICKLABLE_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
    "open", "Graph", "MPCSimulator", "CongestSimulator",
})

#: in-place mutators on lists/dicts/sets
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
})

#: module-level worker functions that are pool entry points by convention
_WORKER_NAME = re.compile(r"^run_\w*(task|chunk)$")


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The right-most identifier of a Name/Attribute chain, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _chain_names(node: ast.AST) -> List[str]:
    """All identifiers along a Name/Attribute/Call receiver chain."""
    out: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            out.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            out.append(node.id)
            return out
        else:
            return out


def _is_seam_call(node: ast.Call) -> bool:
    """Whether ``node`` is ``<something executor/pool-ish>.map/submit(...)``."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _SEAM_METHODS:
        return False
    names = [name.lower() for name in _chain_names(func.value)]
    return any(marker in name
               for name in names for marker in _SEAM_RECEIVER_MARKERS)


def _own_body_walk(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested function scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ------------------------------------------------------------- exec-escape
@rule("exec-escape", family="parallel-safety",
      summary="callable shipped to an executor must be module-level and "
              "free of unpicklable captures")
def check_exec_escape(source) -> Iterator[Finding]:
    if source.tree is None:
        return iter(())
    out: List[Finding] = []
    module_defs: Dict[str, ast.FunctionDef] = {}
    imported: Set[str] = set()
    for stmt in source.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_defs[stmt.name] = stmt
        elif isinstance(stmt, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            imported.update(a.asname or a.name for a in stmt.names)

    def local_callables(fn: ast.AST) -> Set[str]:
        """Names bound to nested defs / lambdas inside this scope."""
        bound: Set[str] = set()
        for node in _own_body_walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value,
                                                             ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
        return bound

    def param_names(fn: ast.AST) -> Set[str]:
        args = fn.args
        every = (list(args.posonlyargs) + list(args.args)
                 + list(args.kwonlyargs))
        names = {a.arg for a in every}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names

    def check_defaults(worker: ast.FunctionDef, seam: ast.Call) -> None:
        args = worker.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d]
        for default in defaults:
            bad = None
            if isinstance(default, (ast.Lambda, ast.GeneratorExp)):
                bad = ("a lambda" if isinstance(default, ast.Lambda)
                       else "a generator expression")
            elif isinstance(default, ast.Call):
                name = _terminal_name(default.func)
                if name in _UNPICKLABLE_CONSTRUCTORS:
                    bad = f"{name}(...)"
            if bad is not None:
                out.append(source.finding(
                    "exec-escape", default,
                    f"worker {worker.name!r} (shipped to an executor) "
                    f"defaults an argument to {bad}; per-worker re-creation "
                    "diverges from the serial shared instance"))

    # seams can appear in any scope; track the stack of enclosing functions
    # so locally-bound callables are recognised wherever the seam sits
    def visit(node: ast.AST, scopes: List[ast.AST]) -> None:
        if isinstance(node, ast.Call) and _is_seam_call(node) and node.args:
            shipped = node.args[0]
            if isinstance(shipped, ast.Lambda):
                out.append(source.finding(
                    "exec-escape", shipped,
                    "lambda shipped to an executor: lambdas never pickle, "
                    "so the pooled path crashes (or silently falls back to "
                    "serial); use a module-level worker function"))
            elif isinstance(shipped, ast.Name):
                name = shipped.id
                enclosing_params = {p for scope in scopes
                                    for p in param_names(scope)}
                if name in module_defs:
                    check_defaults(module_defs[name], node)
                elif name in imported or name in enclosing_params:
                    pass  # module-level by reference / caller's choice
                elif any(name in local_callables(scope) for scope in scopes):
                    out.append(source.finding(
                        "exec-escape", shipped,
                        f"locally defined callable {name!r} shipped to an "
                        "executor: closures never pickle; hoist it to "
                        "module level"))
            elif (isinstance(shipped, ast.Attribute)
                  and isinstance(shipped.value, ast.Name)
                  and shipped.value.id in ("self", "cls")):
                out.append(source.finding(
                    "exec-escape", shipped,
                    f"bound method {ast.unparse(shipped)} shipped to an "
                    "executor: it drags the whole instance across the "
                    "process boundary; use a module-level worker"))
        next_scopes = scopes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            next_scopes = scopes + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, next_scopes)

    visit(source.tree, [])
    return iter(out)


# ------------------------------------------------------------ global-write
@rule("global-write", family="parallel-safety",
      summary="function reachable from a pool worker writes module-level "
              "state")
def check_global_write(source) -> Iterator[Finding]:
    if source.tree is None:
        return iter(())
    out: List[Finding] = []
    module_defs: Dict[str, ast.FunctionDef] = {}
    module_bindings: Set[str] = set()
    for stmt in source.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_defs[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            module_bindings.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    module_bindings.add(target.id)
        elif isinstance(stmt, ast.Import):
            module_bindings.update(a.asname or a.name.split(".")[0]
                                   for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            module_bindings.update(a.asname or a.name for a in stmt.names)

    # roots: conventionally-named workers + anything shipped at a seam here
    roots = {name for name in module_defs if _WORKER_NAME.match(name)}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call) and _is_seam_call(node) and node.args:
            shipped = node.args[0]
            if isinstance(shipped, ast.Name) and shipped.id in module_defs:
                roots.add(shipped.id)
    if not roots:
        return iter(())

    # same-module call closure, mirroring memo_contracts' fixpoint
    calls = {name: {_terminal_name(n.func)
                    for n in _own_body_walk(fn) if isinstance(n, ast.Call)
                    if isinstance(n.func, ast.Name)} & set(module_defs)
             for name, fn in module_defs.items()}
    reachable = set(roots)
    frontier = list(roots)
    while frontier:
        for callee in calls[frontier.pop()]:
            if callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)

    for name in sorted(reachable):
        fn = module_defs[name]
        locals_here: Set[str] = set()
        for node in _own_body_walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                locals_here.update(a.asname or a.name.split(".")[0]
                                   for a in node.names)
        args = fn.args
        locals_here.update(a.arg for a in list(args.posonlyargs)
                           + list(args.args) + list(args.kwonlyargs))
        declared_global: Set[str] = set()
        for node in _own_body_walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign) and not isinstance(
                    node, ast.AugAssign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        locals_here.add(target.id)
        for node in _own_body_walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id in declared_global):
                        out.append(source.finding(
                            "global-write", node,
                            f"pool-reachable {name!r} assigns module global "
                            f"{target.id!r}; worker-side writes never "
                            "propagate back to the parent process"))
                    elif (isinstance(target, (ast.Attribute, ast.Subscript))
                          and isinstance(target.value, ast.Name)
                          and target.value.id in module_bindings
                          and target.value.id not in locals_here):
                        out.append(source.finding(
                            "global-write", node,
                            f"pool-reachable {name!r} writes "
                            f"{ast.unparse(target)}: {target.value.id!r} is "
                            "a module-level binding, so the write is lost "
                            "in pooled execution"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATING_METHODS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in module_bindings
                  and node.func.value.id not in locals_here):
                out.append(source.finding(
                    "global-write", node,
                    f"pool-reachable {name!r} mutates module-level "
                    f"{node.func.value.id!r} in place "
                    f"(.{node.func.attr}()); the mutation is worker-local "
                    "under pooled execution"))
    return iter(out)
