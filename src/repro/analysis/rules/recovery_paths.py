"""Rule family ``resilience``: recovery paths must not swallow errors.

The fault-tolerant execution layer (:mod:`repro.exec`, the bench runner's
per-scenario failure isolation and worker-death re-runs, the
checkpoint/restore machinery in :mod:`repro.resilience`) is exactly the
code where a silent ``except Exception: pass`` is most dangerous: a crash
the recovery path eats is a crash nobody re-runs, records, or blames, and
the suite "passes" with a hole in it.  The contract throughout is that a broad handler must *convert*
the failure -- re-raise it, return it as data (the ``(ERROR, traceback)``
result shape), or feed it to the failure bookkeeping -- never discard it.

``swallowed-exception`` flags a broad handler (bare ``except``, ``except
Exception``, ``except BaseException``, alone or in a tuple) inside the
resilience-relevant packages whose body does none of:

* re-raise (any ``raise``),
* return a value (a bare ``return`` merely exits),
* touch error machinery -- reference an identifier, attribute, or string
  whose name smells of handling (``error``/``fail``/``record``/``warn``/
  ``traceback``/``timeout``/``crash``/``retry``/``verif``/``abort``/
  ``log``).

Typed handlers (``except ValueError``) are out of scope: naming the type is
already a statement about what is expected.  Intentional swallows -- e.g.
"a failed best-effort cache warm-up must not fail the run" -- carry a
justified ``# repro: allow[swallowed-exception]`` pragma, which is the
point: the justification is reviewable, the silence is not.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: packages whose broad handlers sit on recovery paths
_PACKAGES = ("exec", "dynamic", "resilience", "bench")

#: a handler body referencing any of these substrings is treated as
#: converting the failure rather than discarding it
_HANDLING_MARKERS = ("error", "fail", "record", "warn", "traceback",
                     "timeout", "crash", "retry", "verif", "abort", "log")

#: exception names that make a handler "broad"
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """Bare ``except``, or a type naming Exception/BaseException (anywhere
    in a tuple)."""
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None)
        if name in _BROAD_NAMES:
            return True
    return False


def _converts_failure(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises, returns data, or touches the
    error bookkeeping."""
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Return) and node.value is not None:
            return True
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None:
            lowered = name.lower()
            if any(marker in lowered for marker in _HANDLING_MARKERS):
                return True
    return False


@rule("swallowed-exception", family="resilience",
      summary="broad except handler on a recovery path discards the failure "
              "instead of re-raising, returning, or recording it")
def check_swallowed_exception(source) -> Iterator[Finding]:
    if source.tree is None or not source.in_packages(*_PACKAGES):
        return iter(())
    out: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node) or _converts_failure(node):
            continue
        caught = ("bare except" if node.type is None
                  else f"except {ast.unparse(node.type)}")
        out.append(source.finding(
            "swallowed-exception", node,
            f"{caught} on a recovery path discards the failure: the body "
            "neither re-raises, returns a value, nor records the error -- "
            "a crash this handler eats is never retried or blamed"))
    return iter(out)
