"""In-memory span recorder that wraps spinorbit's public functions from outside.

The traced run replaces each function listed in TRACED with a wrapper at
every name a spinorbit module binds it to (``chsh.joint_probabilities`` and
``cli.joint_probabilities`` as well as ``experiment.joint_probabilities``),
so calls between modules are seen without touching the package source.
A span is (name, start, end, parent span, op id, bytes); spans are kept in
flat arrays and only summarised or written when the run ends.

This module imports nothing heavy at load time: the CLI shim times a fresh
``import spinorbit.cli`` after importing it, so numpy must not be loaded
here first.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

CLOCK = time.monotonic  # system-wide on Linux, so spans from child processes line up

ROOT_SPAN = "op"
IMPORT_SPAN = "cli.import"


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object stores in its fields.

    Reads stored fields only, never properties, so an operator kept in a
    compact form is counted at its stored size, not densified.
    """
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        fields = {s: getattr(obj, s, None) for s in getattr(obj, "__slots__", ())}
    return sum(int(getattr(v, "nbytes", 0)) for v in fields.values()
               if type(v).__name__ == "ndarray")


def _apply_bytes(args, result) -> int:
    """Computed bytes touched by one apply call: operator plus input state."""
    return sum(array_bytes(a) for a in args[:2])


def _built_bytes(args, result) -> int:
    return array_bytes(result)


# (span name, module, attribute, bytes hook).  A dotted attribute names a
# method on a class.  Targets missing from the package are skipped and listed
# in Tracer.missing.
TRACED = (
    ("qstate.apply", "spinorbit.qstate", "apply", _apply_bytes),
    ("qstate.apply_bob", "spinorbit.qstate", "apply_bob", _apply_bytes),
    ("qstate.apply_alice", "spinorbit.qstate", "apply_alice", _apply_bytes),
    ("qstate.project", "spinorbit.qstate", "project", None),
    ("qstate.compose", "spinorbit.qstate", "LinearOp.compose", None),
    ("elements.qplate_op", "spinorbit.elements", "qplate_op", _built_bytes),
    ("elements.dove_pair_op", "spinorbit.elements", "dove_pair_op", _built_bytes),
    ("elements.waveplate_op", "spinorbit.elements", "waveplate_op", _built_bytes),
    ("elements.smf_filter_op", "spinorbit.elements", "smf_filter_op", _built_bytes),
    ("elements.mirror_op", "spinorbit.elements", "mirror_op", _built_bytes),
    ("experiment.spdc_source", "spinorbit.experiment", "spdc_source", None),
    ("experiment.prepare_hybrid", "spinorbit.experiment", "prepare_hybrid", None),
    ("experiment.herald", "spinorbit.experiment", "herald", None),
    ("experiment.joint_probabilities", "spinorbit.experiment",
     "joint_probabilities", None),
    ("experiment.expectation", "spinorbit.experiment", "expectation", None),
    ("experiment.interferometer_detect", "spinorbit.experiment",
     "interferometer_detect", None),
    ("chsh.sweep", "spinorbit.chsh", "sweep", None),
    ("chsh.chsh_monte_carlo", "spinorbit.chsh", "chsh_monte_carlo", None),
    ("chsh.sample_counts", "spinorbit.chsh", "sample_counts", None),
    ("chsh.rng_generator", "spinorbit.chsh", "RngSeed.generator", None),
    ("benchdsl.parse", "spinorbit.benchdsl", "parse", None),
    ("benchdsl.compile_bench", "spinorbit.benchdsl", "compile_bench", None),
    ("benchdsl.run", "spinorbit.benchdsl", "BenchPipeline.run", None),
    ("cli.main", "spinorbit.cli", "main", None),
)

ELEMENT_CONSTRUCTORS = tuple(name for name, _, _, hook in TRACED if hook is _built_bytes)
APPLIES = tuple(name for name, _, _, hook in TRACED if hook is _apply_bytes)


def bucket(name: str) -> str:
    """Layer a span's self time is charged to."""
    if name == ROOT_SPAN:
        return "harness"
    if name == IMPORT_SPAN:
        return "import"
    return name.split(".", 1)[0]


class Tracer:
    """Span arrays plus the wrappers that fill them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nbytes.append(0)
        self.end.append(0.0)
        self.start.append(CLOCK())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = CLOCK()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.nbytes[idx] = hook(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED target at each name a loaded spinorbit module gives it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spinorbit" or key.startswith("spinorbit."))]
        for name, mod_name, attr, hook in TRACED:
            mod = sys.modules.get(mod_name)
            if mod is None:  # a module this process never imported has no callers
                continue
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = owner.__dict__.get(meth) if isinstance(owner, type) else getattr(owner, meth, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn, hook)
            if isinstance(owner, type):
                self._restore.append((owner, meth, fn))
                setattr(owner, meth, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def add_child_spans(self, spans) -> None:
        """Append spans exported by another process below the open span."""
        base = len(self.start)
        parent_idx = self._stack[-1] if self._stack else -1
        for name, t0, t1, parent, nbytes in spans:
            self.name_id.append(self._id(name))
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent_idx if parent < 0 else base + parent)
            self.op.append(self.op_id)
            self.nbytes.append(nbytes)

    def export(self) -> list:
        """Spans as JSON-ready rows (name, start, end, parent, bytes)."""
        return [[self.names[n], s, e, p, b] for n, s, e, p, b in
                zip(self.name_id, self.start, self.end, self.parent, self.nbytes)]

    def arrays(self):
        import numpy as np

        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-op totals over the spans of loop ops (op id >= 0).

        Returns {"ops": n, "calls": {name: per op}, "busy_ms": {...},
        "self_ms": {...}, "bytes": {...}, "layer_self_ms": {bucket: per op}}.
        Self time is a span's duration minus the time its child spans cover;
        spans of one thread nest, so that is the sum of the children.
        """
        import numpy as np

        a = self.arrays()
        in_op = a["op"] >= 0
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        ids = a["name_id"][in_op]
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids, weights=dur[in_op], minlength=k)
        selft = np.bincount(ids, weights=self_t[in_op], minlength=k)
        nbytes = np.bincount(ids, weights=a["nbytes"][in_op].astype(float), minlength=k)
        root = self._ids.get(ROOT_SPAN)
        n_ops = int(calls[root]) if root is not None else 0
        per = 1.0 / max(n_ops, 1)
        out = {"ops": n_ops, "calls": {}, "busy_ms": {}, "self_ms": {}, "bytes": {},
               "layer_self_ms": {}}
        for i, name in enumerate(self.names):
            out["calls"][name] = calls[i] * per
            out["busy_ms"][name] = busy[i] * 1e3 * per
            out["self_ms"][name] = selft[i] * 1e3 * per
            out["bytes"][name] = nbytes[i] * per
            b = bucket(name)
            out["layer_self_ms"][b] = out["layer_self_ms"].get(b, 0.0) + selft[i] * 1e3 * per
        return out
