"""Span tracing of the psthresh layers from outside the package.

``Tracer.install`` wraps every public function of the layer modules
(``pauli``, ``noise``, ``postselect``, ``codes``, ``threshold``, ``cli``)
and rebinds the wrapper under every name that holds the original in any
package module, so that calls such as ``threshold.decompose_713`` or
``postselect.measure_traceout`` go through it.  ``Tracer.remove`` puts the
originals back.  Nothing inside the package is edited.

A span is the tuple ``(name_id, start_ns, end_ns, parent, op, info)``:
``parent`` is the index of the enclosing span (-1 for a root) and ``op``
the id of the benchmark op the span belongs to.  ``info`` carries the
few values a layer metric needs from the call (rows of a decomposition,
a verdict, an iteration count) or ``RAISED`` when the call raised.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("pauli", "noise", "postselect", "codes", "threshold", "cli")

RAISED = "raised"

#: multiply-accumulates per row of decompose_713: the character product
#: over 7 qubits x 4 Paulis x 256 characters, then the 256x256 transform
DECOMPOSE_MACS_PER_ROW = 7 * 4 * 256 + 256 * 256

#: solver -> the function each of its probes calls
PROBE_OF = {
    "threshold.concat_threshold_mc": "threshold.mc_verdict",
    "threshold.hashing_threshold": "threshold.teleport_entropy",
}


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _verdict(args, kwargs, result):
    return tuple(result)


def _iterations(args, kwargs, result):
    return int(result.iterations)


#: span name -> what to keep from a successful call
EXTRACT = {
    "codes.decompose_713": _rows,
    "threshold.mc_verdict": _verdict,
    "postselect.fixed_point": _iterations,
}


def _public_functions(module):
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[name] = obj
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in LAYERS]
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = [-1]
        self.op = -1
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name):
        """Context manager recording a span from the benchmark's own code."""
        return _Span(self, self._name_id(name))

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        extract = EXTRACT.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op, RAISED)
                raise
            end = perf_counter_ns()
            stack.pop()
            info = extract(args, kwargs, result) if extract else None
            spans[idx] = (nid, start, end, parent, self.op, info)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self._wrap(fn, "%s.%s" % (layer, name))
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrapper)

    def remove(self):
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def write(self, path):
        """Write the spans as a compressed numpy archive: integer columns
        name, start_ns, end_ns, parent and op, the span names, and the
        ``info`` of the spans that have one, as JSON."""
        cols = np.array([s[:5] for s in self.spans], dtype=np.int64).reshape(-1, 5)
        info = {i: s[5] for i, s in enumerate(self.spans) if s[5] is not None}
        np.savez_compressed(
            path,
            **{k: cols[:, j] for j, k in enumerate(("name", "start_ns", "end_ns", "parent", "op"))},
            names=np.array(self.names),
            info=np.array(json.dumps(info)),
        )


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr.stack[-1]
        tr.stack.append(self.idx)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.idx] = (self.nid, self.start, end, self.parent, tr.op, None)
        return False


def layer_stats(tracer):
    """Per-function statistics over all spans: calls, busy, self time,
    and the call-specific counts in ``info``.  Busy time counts only
    spans with no enclosing span of the same function, so recursion is
    not counted twice.

    Spans are numbered in the order they started and nest properly (one
    thread), so one sweep with a stack of the open spans sees each span's
    ancestors.
    """
    names, spans = tracer.names, tracer.spans
    child_ns = [0] * len(spans)
    for nid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    probe_solver = {
        names.index(probe): names.index(solver)
        for solver, probe in PROBE_OF.items()
        if probe in names and solver in names
    }
    stats = defaultdict(lambda: defaultdict(float))
    open_count = [0] * len(names)
    stack = []
    for i, (nid, start, end, parent, _, info) in enumerate(spans):
        while stack and stack[-1] != parent:
            open_count[spans[stack.pop()][0]] -= 1
        name = names[nid]
        st = stats[name]
        dur = end - start
        st["calls"] += 1
        st["self_ns"] += dur - child_ns[i]
        if child_ns[i] > dur:
            st["negative_self"] += 1
        if not open_count[nid]:
            st["busy_ns"] += dur
        solver = probe_solver.get(nid)
        if solver is not None and open_count[solver]:
            stats[names[solver]]["probes"] += 1
        if info == RAISED:
            st["raised"] += 1
        elif name == "codes.decompose_713":
            st["rows"] += info
        elif name == "threshold.mc_verdict":
            st["levels"] += info[1]
            st["inconclusive"] += info[0] == "inconclusive"
        elif name == "postselect.fixed_point":
            st["iterations"] += info
        stack.append(i)
        open_count[nid] += 1
    return stats
