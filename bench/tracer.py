"""Spans around the public functions of each qbrach module, from outside.

``Tracer`` wraps each target function and rebinds the wrapper under every
name that refers to the original in any loaded ``qbrach`` module, so a
function imported by name (``from .matcore import kron_matrix``) is traced
wherever it is called.  ``Trajectory.h_at``/``f_at`` are patched on the class
and ``numpy.linalg.eigvalsh`` on numpy.  The wrappers are only in place
inside ``with tracer.installed():``.

Each span is (name, start, end, parent, command id), kept in flat arrays in
memory and written out once with ``save``.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, module, attribute).  Several functions may share a span name.
FUNCTION_TARGETS = [
    ("matcore.kron_matrix", "qbrach.matcore", "kron_matrix"),
    ("qbe.integrate_qbe", "qbrach.qbe", "integrate_qbe"),
    ("qbe.conserved_residuals", "qbrach.qbe", "conserved_residuals"),
    ("angmom4.qbe_conservation", "qbrach.angmom4", "qbe_conservation"),
    ("propagate.majorana_eigenframe", "qbrach.propagate", "majorana_eigenframe"),
    ("propagate.propagator", "qbrach.propagate", "propagator"),
    ("propagate.evolve_hamiltonian", "qbrach.propagate", "evolve_hamiltonian"),
    ("propagate.classify_mass", "qbrach.propagate", "classify_mass"),
    ("scatter.verify_conservation", "qbrach.scatter", "verify_conservation"),
    ("cliffrep.build_rep", "qbrach.cliffrep", "build_majorana"),
    ("cliffrep.build_rep", "qbrach.cliffrep", "build_dirac"),
    ("cliffrep.build_rep", "qbrach.cliffrep", "build_gamma_scatter"),
    ("frames.check_frame_equivalence", "qbrach.frames", "check_frame_equivalence"),
    ("frames.check_klein_gordon", "qbrach.frames", "check_klein_gordon"),
    ("cli.main", "qbrach.cli", "main"),
    ("cli.build_parser", "qbrach.cli", "build_parser"),
    ("cli.render_json", "qbrach.cli", "render_json"),
]

# Spans recorded only for the outermost call of a recursive function.
OUTERMOST_ONLY = {"cli.render_json"}


def _note_steps(args, result):
    return "qbe.rk4_steps", len(result.times) - 1


def _note_samples(args, result):
    return "qbe.audit_samples", len(args[0].times)


NOTES = {"qbe.integrate_qbe": _note_steps, "qbe.conserved_residuals": _note_samples}


class Tracer:
    """In-memory span recorder with rebinding wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.cmd = array("l")
        self.command = -1  # id stamped on new spans; set by the caller
        self.counts: dict[tuple[str, int], int] = {}  # (counter, command) -> total
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.bindings = self._bindings()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        note = NOTES.get(name)
        outermost = name in OUTERMOST_ONLY
        stack, active = self._stack, self._active
        active.setdefault(name, 0)

        def traced(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.cmd.append(self.command)
            self.end.append(0.0)
            stack.append(idx)
            active[name] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                active[name] -= 1
                stack.pop()
            if note is not None:
                counter, value = note(args, result)
                key = (counter, self.command)
                self.counts[key] = self.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every rebinding."""
        import numpy.linalg
        from qbrach import qbe

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "qbrach" or name.startswith("qbrach."))]
        out = []
        for span, modname, attr in FUNCTION_TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        out.append((mod, key, original, wrapper))
        for attr in ("h_at", "f_at"):
            original = vars(qbe.Trajectory)[attr]
            out.append((qbe.Trajectory, attr, original, self.wrap("qbe.resum", original)))
        original = numpy.linalg.eigvalsh
        out.append((numpy.linalg, "eigvalsh", original, self.wrap("audit.eigvalsh", original)))
        return out

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self.bindings:
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id), "start": np.array(self.start),
                "end": np.array(self.end), "parent": np.array(self.parent),
                "cmd": np.array(self.cmd)}

    def save(self, path) -> None:
        """Write every span, plus the name table, as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the total duration of its direct children.

    Spans come from one thread and nest, so the children of a span are
    disjoint and lie inside it: their summed duration is the time they cover.
    """
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_totals(tracer: Tracer, groups) -> list[dict[str, dict[str, float]]]:
    """Per group of command ids, per span name: calls, total and self seconds."""
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    own = self_times(a["parent"], duration)
    n = len(tracer.names)
    out = []
    for commands in groups:
        sel = np.isin(a["cmd"], list(commands))
        ids = a["name_id"][sel]
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=duration[sel], minlength=n)
        self_s = np.bincount(ids, weights=own[sel], minlength=n)
        out.append({name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
                    for i, name in enumerate(tracer.names)})
    return out


def counter_total(tracer: Tracer, counter: str, commands) -> int:
    return sum(tracer.counts.get((counter, c), 0) for c in commands)
