"""Rule ``hot-path-alloc``: O(n) constructs inside ``@hot_path`` functions.

The dynamic maintainers' per-update path (``note_update``, the
``MirroredMatching`` hooks, ``FullyDynamicMatching.update``) promises O(1)
amortized work per update; the latency gate in ``tests/test_bench.py``
enforces the *consequence* (a bounded p99), but only after a regression has
already shipped.  This rule enforces the *cause* at lint time: a function
declared :func:`repro.utils.contracts.hot_path` must not

* materialize an argument with ``list(...)``/``dict(...)``/``set(...)``
  (empty-constructor calls are fine -- they are O(1)),
* run a Python-level ``for`` loop (or comprehension) over something that
  looks like a NumPy array (``*_arr``/``*_array`` names, direct ``np.*``
  call results), or
* allocate per call via ``np.asarray``/``np.array``/``np.zeros``/
  ``np.ones``/``np.empty``/``np.full``/``np.arange``/``np.fromiter``.

``np`` stands for whatever name the module's imports bind to NumPy
(``import numpy as _np`` makes ``_np.zeros`` an allocation too).

Only the decorated function's own body is checked (callees are the
decorated function's responsibility to declare); a justified pragma marks
the intentional exceptions, e.g. a bounded materialization of an iterable
consumed twice.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

_ARRAY_NAME = re.compile(r"(^|_)(arr|array)s?$")
_NP_ALLOCATORS = frozenset({
    "asarray", "array", "zeros", "ones", "empty", "full", "arange",
    "fromiter",
})
_MATERIALIZERS = ("list", "dict", "set")


def _has_hot_path_decorator(fn: ast.AST) -> bool:
    for deco in getattr(fn, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute)
                else None)
        if name == "hot_path":
            return True
    return False


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _looks_like_array(node: ast.AST, np_names: Set[str]) -> bool:
    name = _terminal_name(node)
    if name is not None and _ARRAY_NAME.search(name):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in np_names):
            return True
    return False


def _check_body(source, fn: ast.AST, np_names: Set[str],
                out: List[Finding]) -> None:
    label = f"@hot_path {getattr(fn, 'name', '<lambda>')!r}"
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name)
                    and func.id in _MATERIALIZERS
                    and (node.args or node.keywords)):
                out.append(source.finding(
                    "hot-path-alloc", node,
                    f"{label} materializes an argument with "
                    f"{func.id}(...): O(len) work and allocation on the "
                    "per-update path"))
            elif (isinstance(func, ast.Attribute)
                  and func.attr in _NP_ALLOCATORS
                  and isinstance(func.value, ast.Name)
                  and func.value.id in np_names):
                out.append(source.finding(
                    "hot-path-alloc", node,
                    f"{label} allocates per call via "
                    f"{func.value.id}.{func.attr}(...); hoist the buffer "
                    "out of the update path"))
        elif (isinstance(node, ast.For)
              and _looks_like_array(node.iter, np_names)):
            out.append(source.finding(
                "hot-path-alloc", node,
                f"{label} runs a Python-level for loop over a NumPy "
                "array; use a vectorized operation"))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                if _looks_like_array(comp.iter, np_names):
                    out.append(source.finding(
                        "hot-path-alloc", node,
                        f"{label} iterates a NumPy array in a "
                        "comprehension; use a vectorized operation"))


@rule("hot-path-alloc", family="parallel-safety",
      summary="@hot_path function contains an O(n) alloc/loop construct")
def check_hot_path_alloc(source) -> Iterator[Finding]:
    if source.tree is None:
        return iter(())
    np_names = source.numpy_names()
    out: List[Finding] = []
    for node in ast.walk(source.tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _has_hot_path_decorator(node)):
            _check_body(source, node, np_names, out)
    return iter(out)
