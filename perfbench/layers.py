"""Outside-in per-layer timing for the traced run.

Each layer is timed by wrapping its public function where the calling
module looks it up (the module global, or the class attribute for a
method), so nothing inside ``src/`` changes and the untraced run runs
the program exactly as shipped.  Spans nest: a layer's self time is its
duration minus the time of the wrapped layers it called.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: layer name -> (module holding the original, attribute name).
TARGETS = {
    "io.spec_load": ("repro.io.json_io", "spec_from_dict"),
    "io.result_dump": ("repro.io.result_io", "result_to_dict"),
    "compiled.compile": ("repro.compiled", "compiled_spec_for"),
    "compiled.evaluate": ("repro.compiled.evaluator:CompiledEvaluator",
                          "evaluate"),
    "store.diff": ("repro.store.diff", "diff_specs"),
    "store.invalidate": ("repro.store.diff", "invalidate"),
    "parallel.batched": ("repro.parallel.batched", "explore_batched"),
    "resilience.resume": ("repro.resilience.checkpoint", "resume_explore"),
    "resilience.checkpoint_load": ("repro.resilience.checkpoint",
                                   "load_checkpoint"),
    "distributed.partition": ("repro.distributed.partition",
                              "make_partition"),
}


class Spans:
    """Per-layer calls, total and self seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, original: Callable) -> Callable:
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # seconds spent in wrapped callees
            stack.append(frame)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.calls[layer] = self.calls.get(layer, 0) + 1
                    self.total[layer] = self.total.get(layer, 0.0) + elapsed
                    self.self_time[layer] = (
                        self.self_time.get(layer, 0.0) + elapsed - frame[0]
                    )

        timed.__wrapped__ = original
        return timed

    def seconds(self, layer: str) -> float:
        return self.total.get(layer, 0.0)


def install(spans: Spans) -> Callable[[], None]:
    """Wrap every target layer; returns the function that unwraps them.

    Modules that imported a target by name hold their own reference, so
    every loaded ``repro`` module whose global is the original function
    gets the wrapper too.
    """
    undo: List[Tuple[object, str, object]] = []
    for layer, (where, attribute) in TARGETS.items():
        module_name, _, class_name = where.partition(":")
        __import__(module_name)
        owner = sys.modules[module_name]
        if class_name:
            owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            undo.append((owner, attribute, original))
            setattr(owner, attribute, spans.wrap(layer, original))
            continue
        original = getattr(owner, attribute)
        wrapper = spans.wrap(layer, original)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            if getattr(module, attribute, None) is original:
                undo.append((module, attribute, original))
                setattr(module, attribute, wrapper)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
