"""Rule family ``word-accounting``: MPC/CONGEST message paths must be sized.

Two silent budget bypasses once shared one shape: MPC messages were charged
one word each regardless of payload size, and a clique broadcast skipped
the word accounting entirely.  In both, a function moved message payloads
(into machine storage / vertex inboxes) or charged the ``mpc_messages`` /
``congest_messages`` counters without ever consulting the shared
word-sizing funnel.

The rule: inside :mod:`repro.mpc` and :mod:`repro.congest`, any function
that

* calls ``.append`` / ``.extend`` / ``.insert`` on a storage/inbox
  container,
* assigns into (or rebinds) a storage/inbox container, or
* charges a ``*_messages`` counter

must reference at least one accounting funnel: ``payload_words`` or
``_check_memory``.  ``__init__`` (container allocation) is exempt.  This is deliberately a *flow-free*
contract -- it cannot prove the sizing is correct, only that a send path
cannot be written without touching the accounting layer at all, which is
exactly how both PR 3 bugs slipped in.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: substrings identifying message containers in the simulators
_CONTAINER_MARKERS = ("storage", "inbox", "outbox")
#: counters whose charge implies words crossed machines/edges
_MESSAGE_COUNTERS = ("mpc_messages", "congest_messages")
#: the accounting funnels; referencing any one satisfies the contract
_FUNNELS = ("payload_words", "_check_memory")
_MUTATING_METHODS = ("append", "extend", "insert")


def _names_in_chain(node: ast.expr) -> List[str]:
    """All identifier components of an attribute/subscript chain."""
    out: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            out.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            out.append(node.id)
            return out
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return out


def _is_container_ref(node: ast.expr) -> bool:
    return any(marker in name.lower()
               for name in _names_in_chain(node)
               for marker in _CONTAINER_MARKERS)


def _message_path_trigger(fn: ast.AST) -> ast.AST:
    """The first node making ``fn`` a message path, or ``None``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not fn:
            continue  # nested defs are checked on their own
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if (func.attr in _MUTATING_METHODS
                        and _is_container_ref(func.value)):
                    return node
                if (func.attr == "add" and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value in _MESSAGE_COUNTERS):
                    return node
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if _is_container_ref(target):
                    return node
    return None


def _references_funnel(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in _FUNNELS:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _FUNNELS:
            return True
    return False


@rule("word-accounting-bypass", family="word-accounting",
      summary="MPC/CONGEST message path that never touches the word-sizing "
              "funnel")
def check_word_accounting(source) -> Iterator[Finding]:
    if source.tree is None or not source.in_packages("mpc", "congest"):
        return iter(())
    out: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name == "__init__":
            continue  # container allocation, not a send path
        trigger = _message_path_trigger(node)
        if trigger is not None and not _references_funnel(node):
            out.append(source.finding(
                "word-accounting-bypass", trigger,
                f"{node.name}() moves message payloads or charges a message "
                "counter without consulting payload_words/_check_memory -- "
                "words can cross the budget unsized"))
    return iter(out)
