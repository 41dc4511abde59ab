"""Timing of passes over a workload's item list, on a calibrated scale.

The machine the benchmark was defined on (2 vCPUs of an Intel Xeon
virtual machine) changes speed by up to 2x for tens of seconds at a time,
from load outside it; within one run no quiet moment is guaranteed.  So
every untraced pass runs a fixed calibration kernel, at most CAL_EVERY_S
apart, and each op's time is scaled by ``CAL_REF_S / (kernel time around
the op)``.  Times are then seconds at the speed at which the kernel takes
CAL_REF_S, its typical time on that machine.  Interpreter-bound and
array-bound work slow down differently, so the kernel has one part of
each, each timed at its fastest of CAL_REPEATS.  Raw times are kept
beside the scaled ones.

An item is split into ops at each probe mark (a bisection marks the
start of every probe); other items are one op.  Each op's time over the
passes is summarised by its lower quartile: the work is the same in
every pass, and bursts of outside load only add time.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from time import perf_counter

import numpy as np

CAL_EVERY_S = 0.5
CAL_REPEATS = 3

_RNG = np.random.default_rng(0)
_A = _RNG.random((512, 256))
_W = _RNG.random((256, 256))

#: the kernel's typical time on the reference machine
CAL_REF_S = 3.3e-3


def _kernel_python():
    s = 0
    for i in range(20000):
        s += i * i % 7
    a = np.ones(16)
    for _ in range(200):
        a = a * 0.999 + 0.001
    return s


def _kernel_numpy():
    b = _A @ _W
    np.sort(b, axis=1)
    return float((b * 0.5 + 1.0).sum())


KERNELS = (_kernel_python, _kernel_numpy)


class Calibrator:
    """Samples of the calibration kernel's time."""

    def __init__(self):
        for kernel in KERNELS:
            kernel()  # the first call pays for allocation and caches
        self.samples = []
        self.last = -np.inf

    def sample(self):
        total = 0.0
        for kernel in KERNELS:
            best = np.inf
            for _ in range(CAL_REPEATS):
                t0 = perf_counter()
                kernel()
                best = min(best, perf_counter() - t0)
            total += best
        self.samples.append(total)
        self.last = perf_counter()

    def sample_if_due(self):
        if perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def factor(self, seg):
        """Scale for an op timed after sample `seg` and before the next:
        from the median of the four samples on each side, so that one
        noisy sample does not set it."""
        return CAL_REF_S / statistics.median(self.samples[max(seg - 3, 0):seg + 5])


class _Clock:
    """Splits one call of an item into ops at its probe marks."""

    def __init__(self, cal):
        self.cal = cal
        self.ops = []  # (raw seconds, calibration sample before the op)
        self.probes = []
        self._open()

    def _open(self):
        self.seg = len(self.cal.samples) - 1 if self.cal else -1
        self.start = perf_counter()

    def close(self):
        self.ops.append((perf_counter() - self.start, self.seg))

    def mark(self, p):
        if self.probes:
            self.close()
            if self.cal:
                self.cal.sample_if_due()
            self._open()
        self.probes.append(p)


class Passes:
    """Results and op times of a series of passes over the item list.

    Every pass must return the same results and, for a bisection, probe
    the same rates; a difference counts as a mismatch.
    """

    def __init__(self, calibrate):
        self.cal = Calibrator() if calibrate else None
        self.walls = []
        self.op_times = None  # per op: [(raw seconds, calibration sample)] per pass
        self.op_kinds = None
        self.probes = None
        self.results = None
        self.ops = 0
        self.peak_rss_mb = None
        self.raised = set()
        self.mismatched = 0
        self.notes = []

    def run(self, items, seconds, tracer=None):
        """Run passes until the next one would end after `seconds`; at
        least one pass."""
        start = perf_counter()
        while True:
            self.one_pass(items, tracer)
            if perf_counter() - start + min(self.walls) > seconds:
                if self.cal:
                    self.cal.sample()
                return self

    def one_pass(self, items, tracer=None):
        results, ops, probes = [], [], []
        t_pass = perf_counter()
        pass_span = tracer.span("bench.pass").__enter__() if tracer else None
        for i, item in enumerate(items):
            if self.cal:
                self.cal.sample_if_due()
            if tracer:
                tracer.op = i
                span = tracer.span("bench.op").__enter__()
            clock = _Clock(self.cal)
            try:
                res = item.call(clock.mark)
            except Exception:  # a failed op is counted and the run goes on
                self.notes.append("item %d (%s) raised:\n%s" % (i, item.kind, traceback.format_exc()))
                res = None
                self.raised.add(i)
            clock.close()
            if tracer:
                span.__exit__(None, None, None)
            ops.append(clock.ops)
            probes.append(clock.probes)
            self.ops += len(clock.ops)
            results.append(res)
        if pass_span:
            pass_span.__exit__(None, None, None)
        self.walls.append(perf_counter() - t_pass)
        if self.results is None:
            # the program's peak memory; later passes repeat the same work,
            # and only the op times recorded here keep growing
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.results, self.probes = results, probes
            self.op_times = [[op] for item_ops in ops for op in item_ops]
            self.op_kinds = [item.kind for item, item_ops in zip(items, ops) for _ in item_ops]
            return
        self.mismatched += self.compare(results, "pass %d" % len(self.walls))
        for i, (a, b) in enumerate(zip(self.probes, probes)):
            if a != b:
                self.mismatched += 1
                self.notes.append("pass %d: item %d probed %r, first pass %r" % (len(self.walls), i, b, a))
        flat = [op for item_ops in ops for op in item_ops]
        if len(flat) == len(self.op_times):
            for times, op in zip(self.op_times, flat):
                times.append(op)

    def compare(self, results, what):
        """Count items whose result differs from the first pass."""
        bad = [i for i, (a, b) in enumerate(zip(self.results, results)) if a != b]
        for i in bad[:5]:
            self.notes.append("%s: item %d differs: %r vs %r" % (what, i, self.results[i], results[i]))
        return len(bad)

    def op_times_s(self, scaled=True):
        """Lower quartile over passes of each op's time, calibrated when
        `scaled` and a calibration ran."""
        if scaled and self.cal:
            return [_q1([t * self.cal.factor(seg) for t, seg in times]) for times in self.op_times]
        return [_q1([t for t, _ in times]) for times in self.op_times]


def _q1(values):
    return float(np.percentile(values, 25))
