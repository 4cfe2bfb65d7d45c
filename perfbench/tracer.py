"""Layer spans for the benchmark, recorded from outside the program.

The tracer replaces public functions of the ``composer`` package with thin
wrappers that record one span per call: name, start, end and parent.
Spans are kept in memory and written out when the run ends.  A span is
named ``<module>.<function>``, the name the program's own trace will use
once it records spans itself.

Spans are recorded only while a root span opened by the benchmark is
open, so the benchmark's own output checks, which may call the same
functions, never show up in a layer's time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# span name -> (module, attribute path inside the module)
LAYER_FUNCTIONS = {
    "integrals.synth_instance": ("integrals", "synth_instance"),
    "factorization.build_hamiltonian_pool": ("factorization", "build_hamiltonian_pool"),
    "factorization.mp2_amplitudes": ("factorization", "mp2_amplitudes"),
    "factorization.nested_svd_t2": ("factorization", "nested_svd_t2"),
    "factorization.pools_to_json": ("factorization", "pools_to_json"),
    "factorization.pools_from_json": ("factorization", "pools_from_json"),
    "circuit_ir.pivots_from_pools": ("circuit_ir", "pivots_from_pools"),
    "circuit_ir.compile_skeleton": ("circuit_ir", "compile_skeleton"),
    "circuit_ir.skeleton_to_json": ("circuit_ir", "CircuitSkeleton.to_json"),
    "circuit_ir.fabric_fingerprint": ("circuit_ir", "fabric_fingerprint"),
    "circuit_ir.skeleton_from_json": ("circuit_ir", "CircuitSkeleton.from_json"),
    "circuit_ir.dial": ("circuit_ir", "dial"),
    "circuit_ir.dial_to_json": ("circuit_ir", "DialSheet.to_json"),
    "circuit_ir.dial_from_json": ("circuit_ir", "DialSheet.from_json"),
    "circuit_ir.execute_generator_encoding": ("circuit_ir", "execute_generator_encoding"),
    "ladders.schedule_unitary": ("ladders", "schedule_unitary"),
    "ladders.apply_ladder_dense": ("ladders", "apply_ladder_dense"),
    "ladders.one_electron_angles": ("ladders", "one_electron_angles"),
    "ladders.two_electron_angles": ("ladders", "two_electron_angles"),
    "ladders.network_unitary": ("ladders", "network_unitary"),
    "jw.jw_ladder_ops": ("jw", "jw_ladder_ops"),
    "oracle.hamiltonian_block_encoding": ("oracle", "hamiltonian_block_encoding"),
    "oracle.channel_block_encoding": ("oracle", "channel_block_encoding"),
    "oracle.squared_block_gadget": ("oracle", "squared_block_gadget"),
    "oracle.generator_block_encoding": ("oracle", "generator_block_encoding"),
    "oracle.hamiltonian_from_pool": ("oracle", "hamiltonian_from_pool"),
    "oracle.generator_dense": ("oracle", "generator_dense"),
    "oracle.extract_block": ("oracle", "extract_block"),
    "oracle.assert_sector_preserving": ("oracle", "assert_sector_preserving"),
    "qsp.exp_sigma_block": ("qsp", "exp_sigma_block"),
    "qsp.apply_matrix_poly": ("qsp", "apply_matrix_poly"),
    "qsp.degree_for": ("qsp", "degree_for"),
    "mask_engine.similarity_sandwich": ("mask_engine", "similarity_sandwich"),
    "diagnostics.one_shot_mask": ("diagnostics", "one_shot_mask"),
    "resources.estimate": ("resources", "estimate"),
    "cli.cmd_factorize": ("cli", "cmd_factorize"),
    "cli.cmd_compile": ("cli", "cmd_compile"),
    "cli.cmd_dial": ("cli", "cmd_dial"),
    "cli.cmd_verify": ("cli", "cmd_verify"),
    "cli.cmd_estimate": ("cli", "cmd_estimate"),
}

PACKAGE = "composer"
MODULES = sorted({module for module, _ in LAYER_FUNCTIONS.values()})


class Tracer:
    """Wraps the layer functions of ``composer`` and records their spans.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.
    """

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.spans = []  # [name, start, end, parent index or -1]
        self.errors = Counter()  # module -> exceptions escaping a wrapped call
        self._stack = []
        self._restore = []

    def __enter__(self):
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            self._install(name, module, attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _install(self, name, module, attr):
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, module, raw.__func__))
            else:
                wrapped = self._wrap(name, module, raw)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            return
        original = getattr(mod, attr)
        wrapper = self._wrap(name, module, original)
        # Patch every name bound to the function, including ``from x import y``
        # copies in other modules, since callers look it up there.
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, key, original))
                    setattr(other, key, wrapper)

    def _wrap(self, name, module, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        observe = self.observers.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    @contextmanager
    def root(self, name):
        """Open a root span; layer spans are recorded only inside one."""
        span = [name, time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per span name: (self seconds, calls, total seconds).

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            s, calls, total = out.get(name, (0.0, 0, 0.0))
            out[name] = (s + (end - start) - child[i], calls + 1, total + end - start)
        return out

    def dump(self, path):
        """Write every span as ``[name, start, end, parent]`` JSON."""
        with open(path, "w") as fh:
            json.dump({"format": "perfbench-spans-v1", "spans": self.spans}, fh)
