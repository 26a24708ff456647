"""Per-layer timing of groupnets from outside the package.

The tracer replaces each public function listed in ``LAYERS`` by a timing
wrapper wherever a groupnets module holds a reference to it, so the call
sites inside the package (``from .dynamics import spectral_radius``) are
timed without touching program code.  Classes are timed by wrapping their
``__init__``.  Names that no longer exist report zero calls.

For each wrapped name the tracer keeps the inclusive time, the call count
and the self time (inclusive minus the time of wrapped calls made inside
it).  A tracer made with ``memory=True`` also keeps, for the functions that
allocate n-by-n arrays, the ``tracemalloc`` peak of a single call; its
times are not used, since ``tracemalloc`` slows every allocation (about
threefold in the ARPACK loop).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass

# (module, qualified name, report self time, report per-call peak memory)
LAYERS = (
    ("partition", "sample_group_sizes", True, False),
    ("partition", "fixed_sum_realizations", False, False),
    ("generators", "generate", True, False),
    ("generators", "uniform_spanning_tree", False, False),
    ("graphs", "Graph", False, False),
    ("graphs", "Graph.to_csr", False, False),
    ("graphs", "Graph.to_dense", False, True),
    ("graphs", "is_connected", False, False),
    ("graphs", "structural_summary", True, False),
    ("graphs", "average_shortest_path", True, True),
    ("graphs", "average_clustering", True, False),
    ("graphs", "degree_histogram", False, False),
    ("dynamics", "spectral_radius", False, False),
    ("dynamics", "build_consensus_matrix", True, True),
    ("dynamics", "ConsensusSystem", False, True),
    ("dynamics", "second_eigenvalue_modulus", False, True),
    ("dynamics", "markov_report", True, False),
    ("dynamics", "hitting_times", False, True),
    ("dynamics", "steady_state_deviation", False, False),
    ("experiments", "run_sweep", True, False),
    ("experiments", "compute_record", True, False),
    ("experiments", "write_records_csv", False, False),
    ("experiments", "read_records_csv", False, False),
    ("experiments", "summarize", False, False),
    ("regression", "build_design", False, False),
    ("regression", "fit_ols", False, False),
    ("svgplot", "plot_file", True, False),
    ("svgplot", "render_line_chart", False, False),
    ("cli", "main", True, False),
)


@dataclass
class _Stats:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    peak_bytes: int = 0


@dataclass
class _Frame:
    child_seconds: float = 0.0
    measured: bool = False
    base_bytes: int = 0
    peak_seen: int = 0


class Tracer:
    """Owns the wrappers, the call stack and the per-layer totals."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.stats = {f"{m}.{q}": _Stats() for m, q, _, _ in LAYERS}
        self.top_level_seconds = 0.0
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every listed name in every loaded groupnets module."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "groupnets" or name.startswith("groupnets.")]
        for module, qualname, _, has_peak in LAYERS:
            key = f"{module}.{qualname}"
            has_peak = has_peak and self.memory
            owner = importlib.import_module(f"groupnets.{module}")
            head, _, method = qualname.partition(".")
            target = getattr(owner, head, None)
            if target is None:
                continue
            if isinstance(target, type):
                cls, attr = target, method or "__init__"
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                self._patch(cls, attr, self._wrap(key, original, has_peak))
                continue
            wrapper = self._wrap(key, target, has_peak)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _patch(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _wrap(self, key: str, fn, has_peak: bool):
        stats = self.stats[key]
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = _Frame()
            if has_peak:
                self._enter_memory(frame)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.seconds += elapsed
                stats.self_seconds += elapsed - frame.child_seconds
                if stack:
                    stack[-1].child_seconds += elapsed
                else:
                    self.top_level_seconds += elapsed
                if has_peak:
                    stats.peak_bytes = max(stats.peak_bytes, self._leave_memory(frame))

        return timed

    def _enter_memory(self, frame: _Frame) -> None:
        parent = self._enclosing_measured()
        if parent is None:
            tracemalloc.start()
        else:
            # resetting the peak below would lose the enclosing call's peak so far
            parent.peak_seen = max(parent.peak_seen, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        frame.base_bytes = frame.peak_seen = tracemalloc.get_traced_memory()[0]
        frame.measured = True

    def _leave_memory(self, frame: _Frame) -> int:
        """Peak bytes of the call that owns ``frame``, which is off the stack."""
        peak = max(tracemalloc.get_traced_memory()[1], frame.peak_seen)
        parent = self._enclosing_measured()
        if parent is None:
            tracemalloc.stop()
        else:
            parent.peak_seen = max(parent.peak_seen, peak)
        return peak - frame.base_bytes

    def _enclosing_measured(self) -> _Frame | None:
        return next((f for f in reversed(self._stack) if f.measured), None)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Name -> (value, unit): per-round times and calls, per-call peak memory."""
        out = {}
        for module, qualname, has_self, has_peak in LAYERS:
            key = f"{module}.{qualname}"
            s = self.stats[key]
            out[f"{key}.ms"] = (1e3 * s.seconds / rounds, "ms")
            out[f"{key}.calls"] = (s.calls / rounds, "count")
            if has_self:
                out[f"{key}.self_ms"] = (1e3 * s.self_seconds / rounds, "ms")
            if has_peak:
                out[f"{key}.peak_mb"] = (s.peak_bytes / 2**20, "MiB")
        return out
