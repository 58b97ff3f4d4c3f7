"""In-memory span recorder for the traced benchmark run.

The tracer patches public functions of the ``oamqkd`` layers in the module
that calls them (the package binds names with ``from .x import y``, so the
callee's own module attribute is not what the caller looks up).  Each call
records one span ``(name, start, end, parent)``; nothing is added to the
package itself.  A target the program no longer has is skipped, so a layer
it stops calling reports zero calls instead of an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext

# (module that makes the call, attribute it looks up, span name).  The span
# name's prefix is the layer that owns the function.
TARGETS = (
    ("oamqkd.cli", "parse_config", "cli.parse_config"),
    ("oamqkd.cli", "run", "cli.run"),
    ("oamqkd.cli", "run_session", "protocol.run_session"),
    ("oamqkd.cli", "build_mub_family", "states.build_mub_family"),
    ("oamqkd.protocol", "run_session", "protocol.run_session"),
    ("oamqkd.protocol", "sift", "protocol.sift"),
    ("oamqkd.protocol", "estimate_qber", "protocol.estimate_qber"),
    ("oamqkd.protocol", "build_mub_family", "states.build_mub_family"),
    ("oamqkd.protocol", "prepare_b1", "devices.prepare_b1"),
    ("oamqkd.protocol", "prepare_b2", "devices.prepare_b2"),
    ("oamqkd.protocol", "apply_channel", "channel.apply_channel"),
    ("oamqkd.protocol", "modal_convert", "devices.modal_convert"),
    ("oamqkd.protocol", "measure_b1", "devices.measure_b1"),
    ("oamqkd.protocol", "measure_b2", "devices.measure_b2"),
    ("oamqkd.protocol", "born_measure", "states.born_measure"),
    ("oamqkd.channel", "eve_attack", "channel.eve_attack"),
    ("oamqkd.channel", "born_measure", "states.born_measure"),
    ("oamqkd.devices", "sample_index", "states.sample_index"),
    ("oamqkd.states", "sample_index", "states.sample_index"),
    ("oamqkd.modes", "mode_field", "modes.mode_field"),
    ("oamqkd.modes", "overlap", "modes.overlap"),
)


class Tracer:
    """Span list plus the patches that feed it; inactive until installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.nbytes: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._patched)

    def _open(self) -> tuple[int, float]:
        """Reserve a span slot and enter it; returns its index and start time."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, time.perf_counter()

    def _close(self, name: str, idx: int, start: float) -> None:
        """Leave span ``idx`` and store it under the span that encloses it."""
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        self.spans[idx] = (name, start, end, stack[-1] if stack else -1)

    def _record(self, name: str, fn):
        nbytes = self.nbytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, idx, start)
            size = getattr(result, "nbytes", None)
            if size is not None:
                nbytes[name] = nbytes.get(name, 0) + size
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target that exists in the loaded package."""
        if self.active:
            return
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._record(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def span(self, name: str):
        """Context manager recording a span from the benchmark's own code."""
        return self._span(name) if self.active else nullcontext()

    @contextmanager
    def _span(self, name: str):
        idx, start = self._open()
        try:
            yield
        finally:
            self._close(name, idx, start)

    def take(self) -> tuple[list[tuple[str, float, float, int]], dict[str, int]]:
        """Hand over the recorded spans and byte counts and start afresh."""
        # the wrappers hold these containers, so empty them in place
        spans, nbytes = self.spans[:], dict(self.nbytes)
        self.spans.clear()
        self.nbytes.clear()
        return spans, nbytes


def summarize(spans: list[tuple[str, float, float, int]]) -> dict:
    """Calls, inclusive time, and per-layer self and busy time.

    A span's self time is its duration minus its direct children's; a
    layer's busy time sums the spans whose parent lies in another layer
    (or is absent), so nested calls within one layer count once.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    layer_busy: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + duration
        layer_self[layer] = layer_self.get(layer, 0.0) + duration - child_time[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            layer_busy[layer] = layer_busy.get(layer, 0.0) + duration
    return {
        "calls": calls,
        "inclusive": inclusive,
        "layer_self": layer_self,
        "layer_busy": layer_busy,
    }


def write_spans(path, spans: list[tuple[str, float, float, int]]) -> None:
    """Dump spans as CSV (times in microseconds from the first span)."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index,name,start_us,end_us,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent}\n")
