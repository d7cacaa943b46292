"""Spans around calls into spinphase layers, recorded from the benchmark's side.

A span covers one call into a public spinphase name.  Its self time is its
duration minus the part its direct child spans cover, so the self times of a
span tree add up to the root's duration.  Spans and counters live in memory
and are summed per name; nothing is written until the run ends.

Instrumentation works by rebinding: every ``spinphase.*`` module attribute that
is one of the traced public objects is replaced by a traced stand-in, so calls
one layer makes into another are seen too.  Classes are replaced by a
subclass whose ``__init__`` opens the span.  ``argparse.ArgumentParser``'s
``parse_known_args`` and ``__init__`` are wrapped on the class.  ``uninstall``
puts every original back.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections import defaultdict

# span name -> (module, public attribute)
TRACED = {
    "states.PureState": ("spinphase.states", "PureState"),
    "circuits.prepare_spinor": ("spinphase.circuits", "prepare_spinor"),
    "circuits.parse_circuit": ("spinphase.circuits", "parse_circuit"),
    "circuits.run_circuit": ("spinphase.circuits", "run_circuit"),
    "berry.spinor_loop": ("spinphase.berry", "spinor_loop"),
    "berry.entangled_family_loop": ("spinphase.berry", "entangled_family_loop"),
    "berry.holonomy_numeric": ("spinphase.berry", "holonomy_numeric"),
    "rabi.evolve_coefficients": ("spinphase.rabi", "evolve_coefficients"),
    "rabi.spin_echo_ledger": ("spinphase.rabi", "spin_echo_ledger"),
    "entangle.evolve_bell": ("spinphase.entangle", "evolve_bell"),
    "entangle.monopole_strength_rg": ("spinphase.entangle", "monopole_strength_rg"),
    "noise.noisy_phase": ("spinphase.noise", "noisy_phase"),
    "cli.RunRecord": ("spinphase.cli", "RunRecord"),
    "cli.run_records": ("spinphase.cli", "run_records"),
    "cli.sweep": ("spinphase.cli", "sweep"),
    "cli.dispatch": ("spinphase.cli", "dispatch"),
    "cli.emit": ("spinphase.cli", "emit"),
}
ARGPARSE_SPANS = ("cli.argparse.parse", "cli.argparse.parser_builds")
LOOP_BUILDERS = ("berry.spinor_loop", "berry.entangled_family_loop")
# every span name the tables report; cli.emit splits by format
SPAN_NAMES = tuple(n for n in TRACED if n != "cli.emit") + (
    "cli.emit.json", "cli.emit.csv") + ARGPARSE_SPANS


class Tracer:
    """Per-name call counts, self times and counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self._loop_depth = 0
        self._restore: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack
        if stack and stack[-1][0] == name:
            # argparse re-enters parse_known_args for the chosen subparser; one parse
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            stack.pop()
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def merge(self, table: dict) -> None:
        """Add a table written by ``snapshot`` (from a child process)."""
        for name, n in table["calls"].items():
            self.calls[name] += n
        for name, s in table["self_s"].items():
            self.self_s[name] += s
        for name, v in table["counters"].items():
            self.counters[name] += v

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    # -- instrumentation -------------------------------------------------

    def _wrap_function(self, name, fn):
        if name == "cli.emit":
            @functools.wraps(fn)
            def traced(records, format):
                payload = self.call(f"cli.emit.{format}", fn, records, format)
                self.counters["cli.emit.bytes"] += len(payload)
                self.counters["cli.emit.records"] += len(records)
                return payload
            return traced
        if name == "berry.holonomy_numeric":
            @functools.wraps(fn)
            def traced(path):
                states = len(path)
                self.counters["berry.holonomy_numeric.segments"] += states - 1
                # (N+1) x d complex128 amplitudes, computed from sizes, not measured
                width = len(path[0].amplitudes) if states else 0
                self.counters["berry.holonomy_numeric.bytes_computed"] += states * width * 16
                return self.call(name, fn, path)
            return traced
        if name in LOOP_BUILDERS:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                segments = kwargs["segments"] if "segments" in kwargs else args[-1]
                self._loop_depth += 1
                try:
                    out = self.call(name, fn, *args, **kwargs)
                finally:
                    self._loop_depth -= 1
                self.counters["loop.segments"] += segments
                return out
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _wrap_class(self, name, cls):
        tracer = self
        base_init = cls.__init__

        def __init__(self, *args, **kwargs):
            if name == "states.PureState" and tracer._loop_depth:
                tracer.counters["loop.states"] += 1
            tracer.call(name, base_init, self, *args, **kwargs)

        namespace = {"__init__": __init__, "__module__": cls.__module__,
                     "__qualname__": cls.__qualname__}
        if "__slots__" in cls.__dict__:
            namespace["__slots__"] = ()
        return type(cls.__name__, (cls,), namespace)

    def install(self) -> None:
        """Rebind every traced public name in the loaded spinphase modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spinphase" or n.startswith("spinphase."))]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue  # the name is gone; its rows read 0
            if isinstance(original, type):
                stand_in = self._wrap_class(name, original)
            else:
                stand_in = self._wrap_function(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, stand_in)
                        self._restore.append((module, key, original))
        parser = argparse.ArgumentParser
        for attr, span in (("parse_known_args", "cli.argparse.parse"),
                           ("__init__", "cli.argparse.parser_builds")):
            original = parser.__dict__[attr]
            setattr(parser, attr, self._wrap_function(span, original))
            self._restore.append((parser, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
