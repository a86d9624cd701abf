"""Rule family ``memo-contract``: declared memo invalidation on mutators.

Containers memoise derived state (the dynamic graph's update and edge
accounting); a mutator that forgets to mark it stale serves stale reads --
the bug class a graph storage layout's neighbour-list memo shipped twice.
Runtime tests check the declarations against behaviour; this rule is the
mechanical gate.

Classes opt in by decorating mutators with
:func:`repro.utils.contracts.invalidates`, naming the guard attributes the
method must write.  Two checks per opted-in class:

* ``memo-invalidation-missing`` -- a declared mutator whose body never
  assigns a declared attribute, directly or through another method of the
  same class (computed as a call-graph fixpoint, so ``insert()`` delegating
  to ``apply()`` counts);
* ``memo-mutator-undeclared`` -- a method whose name matches the mutator
  pattern (``add_*``/``remove_*``/``delete_*``/``insert_*``/``apply*``/
  ``clear*``/``update*``) but carries no declaration.  New mutation APIs
  cannot silently skip the contract.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

_MUTATOR_NAME = re.compile(
    r"^(add|remove|delete|insert|apply|clear|update)(_|$)")


def _declared_attrs(fn: ast.FunctionDef) -> Optional[Tuple[str, ...]]:
    """The ``@invalidates(...)`` declaration of a method, if present."""
    for deco in fn.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        func = deco.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name != "invalidates":
            continue
        attrs = []
        for arg in deco.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                attrs.append(arg.value)
        return tuple(attrs)
    return None


def _direct_writes(fn: ast.FunctionDef) -> Set[str]:
    """``self.<attr>`` names this method assigns or mutates in place."""
    out: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    out.add(target.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            # self.<attr>.clear() / .update() / .pop() etc. mutate the memo
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"):
                out.add(func.value.attr)
    return out


def _self_calls(fn: ast.FunctionDef) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            out.add(node.func.attr)
    return out


def _effective_writes(methods: Dict[str, ast.FunctionDef]) -> Dict[str, Set[str]]:
    """Per-method write sets, closed over same-class ``self.m()`` calls."""
    writes = {name: _direct_writes(fn) for name, fn in methods.items()}
    calls = {name: _self_calls(fn) & set(methods)
             for name, fn in methods.items()}
    changed = True
    while changed:
        changed = False
        for name in methods:
            merged = set(writes[name])
            for callee in calls[name]:
                merged |= writes[callee]
            if merged != writes[name]:
                writes[name] = merged
                changed = True
    return writes


@rule("memo-invalidation-missing", family="memo-contract",
      summary="declared mutator never writes its declared memo guard")
def check_memo_invalidation(source) -> Iterator[Finding]:
    return _run_memo_checker(source)


@rule("memo-mutator-undeclared", family="memo-contract",
      summary="mutator-named method without an @invalidates declaration on "
              "an opted-in class")
def check_memo_mutators(source) -> Iterator[Finding]:
    return iter(())  # reported by the shared memo checker under its own id


def _run_memo_checker(source) -> Iterator[Finding]:
    if source.tree is None:
        return iter(())
    out: List[Finding] = []
    for klass in ast.walk(source.tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        methods = {stmt.name: stmt for stmt in klass.body
                   if isinstance(stmt, ast.FunctionDef)}
        declarations = {name: attrs for name, fn in methods.items()
                        if (attrs := _declared_attrs(fn)) is not None}
        if not declarations:
            continue  # class has not opted into the contract
        writes = _effective_writes(methods)
        for name, attrs in declarations.items():
            missing = [attr for attr in attrs if attr not in writes[name]]
            if missing:
                out.append(source.finding(
                    "memo-invalidation-missing", methods[name],
                    f"{klass.name}.{name} declares @invalidates"
                    f"({', '.join(map(repr, attrs))}) but never writes "
                    f"{', '.join(missing)} (directly or via a method it "
                    "calls) -- memoised views go stale"))
        for name, fn in methods.items():
            if name in declarations or name.startswith("__"):
                continue
            if _MUTATOR_NAME.match(name):
                out.append(source.finding(
                    "memo-mutator-undeclared", fn,
                    f"{klass.name}.{name} looks like a mutator but has no "
                    "@invalidates declaration; declare what it invalidates "
                    "(or pragma why it mutates nothing memoised)"))
    return iter(out)
