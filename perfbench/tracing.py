"""Per-layer self time and call counts, measured by wrapping public functions.

A :class:`Tracer` replaces each target of :data:`layers.LAYERS` with a thin
wrapper while it is installed, and restores the originals afterwards.  Spans
are aggregated as they close rather than stored: a span's self time is its
duration minus the time of the spans nested in it, so the per-layer self
times of one pass sum to the time spent inside any layer, and the pass wall
time minus that sum is the unattributed time (the harness loop and library
code outside every wrapped function).

A span nested directly in a span of the same layer (a checkpoint writer
delegating to the one-shot writer, say) adds its self time to the layer but
neither counts as a call nor runs the layer's hooks.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List

from layers import LAYERS


def _rebuild_pre(args):
    return args[0].current_matching().size


def _rebuild_post(tracer, args, result, before):
    if args[0].current_matching().size <= before:
        tracer.extra["dynamic.rebuild.zero_gain"] += 1


def _checkpoint_bytes(tracer, args, result, before):
    if isinstance(result, str) and os.path.exists(result):
        tracer.extra["resilience.checkpoint.bytes"] += os.path.getsize(result)


#: (layer, attr) -> (pre, post) hooks run around the outermost span
_HOOKS = {
    ("dynamic.rebuild", "FullyDynamicMatching.rebuild"):
        (_rebuild_pre, _rebuild_post),
    ("resilience.checkpoint", "MaintainerCheckpoint.save"):
        (None, _checkpoint_bytes),
    ("resilience.checkpoint", "DeltaCheckpointWriter.save"):
        (None, _checkpoint_bytes),
}


class Tracer:
    """Aggregated spans for the layers in :data:`layers.LAYERS`."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        #: targets that do not exist in this version of the library
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # ----------------------------------------------------------- wrapping
    def _wrap(self, fn, layer: str, counted: bool, pre, post):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            if outer and counted:
                calls[layer] += 1
            before = pre(args) if (outer and pre is not None) else None
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if outer and post is not None:
                post(self, args, result, before)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; missing ones are recorded, not fatal."""
        wrapped: Dict[int, Callable] = {}
        for layer in LAYERS:
            for target in layer.targets:
                try:
                    module = importlib.import_module(target.owner)
                except ImportError:
                    self.missing.append(f"{target.owner}.{target.attr}")
                    continue
                owner_name, _, attr = target.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{target.owner}.{target.attr}")
                    continue
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                pre, post = _HOOKS.get((layer.name, target.attr), (None, None))
                # a function re-bound in several modules gets one wrapper
                key = id(original)
                if key not in wrapped:
                    wrapped[key] = self._wrap(original, layer.name,
                                              target.counted, pre, post)
                setattr(owner, attr, wrapped[key])
                self._undo.append(self._restorer(owner, attr, own, original))

    @staticmethod
    def _restorer(owner, attr, own, original):
        if own:
            return lambda: setattr(owner, attr, original)
        return lambda: delattr(owner, attr)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9


def layer_table(tracer: Tracer, wall_s: float, passes: int) -> str:
    """Human-readable per-layer table for ``passes`` traced passes."""
    rows = [f"{'layer':32s} {'calls/pass':>11s} {'self_s/pass':>11s} "
            f"{'share':>7s}  should move / flat on"]
    for layer in LAYERS:
        self_s = tracer.self_s(layer.name) / passes
        share = self_s / wall_s if wall_s else 0.0
        calls = tracer.calls.get(layer.name, 0) / passes
        rows.append(f"{layer.name:32s} {calls:11.0f} {self_s:11.4f} "
                    f"{share:7.2%}  {layer.moves} / {layer.flat_on}")
    unattributed = wall_s - tracer.total_self_s() / passes
    share = unattributed / wall_s if wall_s else 0.0
    rows.append(f"{'unattributed_s':32s} {'':11s} {unattributed:11.4f} "
                f"{share:7.2%}")
    rows.append(f"{'traced wall per pass':32s} {'':11s} {wall_s:11.4f}")
    return "\n".join(rows)
