"""Declared runtime contracts that the static analyzer reads.

The memo-invalidation bug class (a mutating method that forgets to mark a
compiled/cached view stale) was caught twice at runtime, both times in a
graph storage layout's memoised neighbour lists: once as a smoke-benchmark
regression and once by a hypothesis property test over every mutation API.
A property test is a good *oracle* but a bad *gate*: it only exercises the
mutators someone remembered to list in its script.

This module turns that knowledge into a declaration the static checker can
enforce: a mutating method is decorated with :func:`invalidates`, naming the
instance attributes it must write (the dirty flag / counters guarding the
memoised views).  ``repro.analysis`` (rule family ``memo-contract``) then
checks, purely from the AST, that

* every decorated method really assigns each declared attribute (directly or
  via another method of the same class), and
* once a class declares any mutator, every other method whose name looks like
  a mutator (``add_*``, ``remove_*``, ``delete_*``, ``insert_*``, ``apply*``,
  ``clear*``) is declared too -- new mutation APIs cannot silently skip the
  contract.

The decorator is zero-cost at runtime (it only tags the function); the
runtime registry below exists so tests can assert the declarations are
*complete* against behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

#: attribute set on decorated functions; the AST checker matches the
#: decorator by name, the runtime registry by this attribute
_MARKER = "__invalidates__"

#: attribute set by :func:`hot_path`; same split as above -- the AST rule
#: (``hot-path-alloc``) matches the decorator by name, the runtime registry
#: reads the attribute
_HOT_MARKER = "__hot_path__"


def hot_path(fn: Callable) -> Callable:
    """Declare that this function runs on a per-update latency budget.

    The dynamic maintainers promise O(1) (amortized poly(1/eps)) work per
    update; one stray ``list(...)`` materialization or per-call NumPy
    allocation silently turns that into O(n) and shows up as a latency-gate
    regression long after the offending commit.  Marking the update-path
    functions with ``@hot_path`` lets the static checker (rule
    ``hot-path-alloc``) reject O(n) constructs -- ``list``/``dict``/``set``
    materialization of arguments, Python-level loops over NumPy arrays,
    per-call ``np.asarray``/``np.zeros``-style allocations -- at lint time.

    Zero-cost at runtime (only tags the function); must be the *innermost*
    decorator so the tag lands on the actual function object.
    """
    setattr(fn, _HOT_MARKER, True)
    return fn


def is_hot_path(fn: Callable) -> bool:
    """Whether ``fn`` (or its ``__func__``) carries the :func:`hot_path` tag."""
    return bool(getattr(getattr(fn, "__func__", fn), _HOT_MARKER, False))


def declared_hot_paths(cls: type) -> Tuple[str, ...]:
    """Sorted method names of ``cls`` (incl. bases) declared :func:`hot_path`.

    The completeness counterpart of :func:`declared_mutators`: the latency
    tests iterate this registry so a newly-declared hot path cannot silently
    miss behavioural coverage.
    """
    out = set()
    for klass in cls.__mro__:
        for name, member in vars(klass).items():
            fn = getattr(member, "__func__", member)  # un-wrap staticmethod &c.
            if getattr(fn, _HOT_MARKER, False):
                out.add(name)
    return tuple(sorted(out))


def invalidates(*attrs: str) -> Callable:
    """Declare that this mutating method invalidates the named attributes.

    ``attrs`` are instance-attribute names (e.g. ``"_dirty"``) that guard the
    class's memoised views; the static checker verifies the method body
    assigns every one of them.  Must be the *innermost* decorator so the tag
    lands on the actual function object.
    """
    if not attrs:
        raise ValueError("invalidates() needs at least one attribute name")
    for attr in attrs:
        if not isinstance(attr, str) or not attr:
            raise ValueError(f"attribute names must be non-empty strings, "
                             f"got {attr!r}")

    def decorate(fn: Callable) -> Callable:
        setattr(fn, _MARKER, tuple(attrs))
        return fn

    return decorate


def declared_mutators(cls: type) -> Dict[str, Tuple[str, ...]]:
    """All :func:`invalidates`-declared mutators of ``cls`` (incl. bases).

    Maps method name to the declared attribute tuple; subclass declarations
    shadow base-class ones.  This is the registry the completeness tests
    iterate: every mutation API a behavioural test exercises must appear
    here, and vice versa.
    """
    out: Dict[str, Tuple[str, ...]] = {}
    for klass in reversed(cls.__mro__):
        for name, member in vars(klass).items():
            fn = getattr(member, "__func__", member)  # un-wrap staticmethod &c.
            declared = getattr(fn, _MARKER, None)
            if declared is not None:
                out[name] = declared
    return out
