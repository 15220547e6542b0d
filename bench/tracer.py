"""Span tracer that wraps library functions from outside the library.

The wrapped functions are declared in TARGETS as (module, attribute path)
pairs.  A name imported into another module (``from .spectral import
decompose_chain``) is a second binding of the same function object, so
installing the tracer replaces the function in every loaded ``ppxfer``
module that holds it; wrapping only the defining module would silently miss
those calls.  A target that no longer exists is reported as absent, not
raised.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "ppxfer"

TARGETS = (
    ("spectral", "decompose_chain"),
    ("amplitudes", "plan_scan_grid"),
    ("amplitudes", "scan_transfer"),
    ("amplitudes", "find_transfer_peak"),
    ("amplitudes", "SubmatrixEvaluator.submatrix"),
    ("amplitudes", "fermion_prob"),
    ("amplitudes", "boson_prob"),
    ("perturbation", "find_clusters"),
    ("perturbation", "perturbation_report"),
    ("observables", "interaction_energy"),
    ("observables", "switching_energy"),
    ("observables", "battery_metrics"),
    ("oracle", "oracle_transfer_prob"),
    ("oracle", "build_sector_hamiltonian"),
)

DECOMPOSE = "spectral.decompose_chain"
PEAK = "amplitudes.find_transfer_peak"
DET_PERM = ("amplitudes.fermion_prob", "amplitudes.boson_prob")


def _points_of_grid(result) -> int:
    return len(result[0])


def _points_of_curve(result) -> int:
    return len(result.times)


# grid sizes are read off the return value, so they count what was computed
POINTS = {
    "amplitudes.plan_scan_grid": _points_of_grid,
    "amplitudes.scan_transfer": _points_of_curve,
}


@dataclass(slots=True)
class Span:
    call: int        # index of the workload call this span belongs to
    span: int
    parent: int      # -1 for a span opened directly by the workload call
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    call: int = -1
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    _points: dict = field(default_factory=lambda: defaultdict(int))
    _specs: dict = field(default_factory=lambda: defaultdict(set))

    def _wrap(self, name: str, fn):
        points = POINTS.get(name)
        is_decompose = name == DECOMPOSE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].span if self._stack else -1
            rec = Span(self.call, len(self.spans), parent, name, time.perf_counter())
            self.spans.append(rec)
            self._stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += rec.end - rec.start
            if points is not None:
                self._points[name] += points(result)
            if is_decompose:
                spec = args[0] if args else kwargs.get("spec")
                self._specs[self.call].add(spec)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            holders = [owner] if outer else [m for m in modules
                                             if vars(m).get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def stats(self) -> dict:
        """Per-layer metrics keyed ``<module>.<function>.<stat>``."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        polish = 0
        for s in self.spans:
            calls[s.name] += 1
            total[s.name] += s.end - s.start
            own[s.name] += s.end - s.start - s.child_s
            if s.name in DET_PERM and s.parent >= 0 and self.spans[s.parent].name == PEAK:
                polish += 1
        out = {}
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            if name in self.absent:
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
            if name in POINTS:
                out[f"{name}.points"] = self._points[name]
        if DECOMPOSE not in self.absent:
            distinct = sum(len(specs) for specs in self._specs.values())
            out[f"{DECOMPOSE}.unique_frac"] = distinct / calls[DECOMPOSE] if calls[DECOMPOSE] else 0.0
        if PEAK not in self.absent:
            out["amplitudes.polish_evals"] = polish
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("call,span,parent,name,start_s,end_s\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for s in self.spans:
                fh.write(f"{s.call},{s.span},{s.parent},{s.name},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f}\n")
