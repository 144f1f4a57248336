"""Span and counter tracing of the blockade layers, installed from outside.

The package itself carries no instrumentation.  `Tracer.install` replaces the
public functions of each layer module by timing wrappers, in every blockade
module namespace that holds them, so a name another module imported (for
example ``series.commutator_H`` or ``dynamics.build_basis``) is wrapped too.
It also wraps ``SparseIntMatrix.matvec_int`` and ``numpy.linalg.eigh``.

Every wrapped call adds its duration to its own name and to its caller's
child time, so ``self`` time is duration minus the time of wrapped calls made
inside it.  Calls are also kept as spans ``(name, start, end, parent,
run_id)``, except `bounds.kappa`, which runs up to a million times per
envelope and is only counted.  Functions in `UNWRAPPED` run inside inner
loops (per word pair, or per tail term of an envelope); wrapping them would
cost more than their work, so their time is self time of their caller.

While the tracer is active a thread samples the resident set size every few
milliseconds, which gives the peak memory seen inside a layer's spans.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("words", "series", "basis", "dynamics", "bounds")

UNWRAPPED = {
    "words.letter_mul",
    "words.make_word",
    "words.word_mul",
    "words.word_adjoint",
    "words.word_length",
    "words.single_count",
    "bounds.log_kappa",
    "bounds.omega",
    "bounds.coefficient_bound",
}

COUNTED = {"bounds.kappa"}  # counted and timed, never kept as spans

SAMPLE_INTERVAL_S = 0.002


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * _PAGE_MB


try:
    _PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
    _rss_mb()
    HAVE_RSS = True
except (OSError, ValueError, AttributeError):
    HAVE_RSS = False  # no /proc: the per-layer peaks read 0


class Tracer:
    """Collects spans, per-name call statistics and named counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[tuple] = []  # (name, start, end, parent index, run_id)
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._samples: list[tuple[float, float]] = []
        self._sampler: threading.Thread | None = None
        self._stop = threading.Event()

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, frame[1], None, parent, self.run_id))
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        s = self.spans[index]
        self.spans[index] = (s[0], s[1], end, s[3], s[4])

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (used around benchmark ops)."""
        if not self.active:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count_max(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def count_add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name: str, after=None):
        """Timing wrapper around ``fn``; ``after(result, args)`` updates counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_counted(self, fn, name: str):
        """Cheaper wrapper for leaf calls that are too many to keep as spans."""
        tracer = self
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            start = clock()
            result = fn(*args)
            dur = clock() - start
            st[0] += 1
            st[1] += dur
            st[2] += dur
            if tracer._stack:
                tracer._stack[-1][2] += dur
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- memory sampling -----------------------------------------------------

    def _sample_loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._samples.append((time.perf_counter(), _rss_mb()))

    def start(self) -> None:
        self.active = True
        if HAVE_RSS:
            self._stop.clear()
            self._sampler = threading.Thread(target=self._sample_loop, daemon=True)
            self._sampler.start()

    def stop(self) -> None:
        self.active = False
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join(timeout=5)
            self._sampler = None

    def peak_mb(self, match) -> float:
        """Largest sampled RSS while a span whose name satisfies ``match`` was open."""
        merged: list[list[float]] = []
        for start, end in sorted(
            (s[1], s[2]) for s in self.spans if s[2] is not None and match(s[0])
        ):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        peak = 0.0
        i = 0
        for t, rss in self._samples:  # samples are in time order
            while i < len(merged) and merged[i][1] < t:
                i += 1
            if i < len(merged) and merged[i][0] <= t:
                peak = max(peak, rss)
        return peak

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self, *callers) -> None:
        """Wrap the public functions of every layer module, plus matvec and eigh.

        The wrappers replace the originals in every blockade module and in
        each module of ``callers`` (the benchmark's own modules that imported
        layer functions by name)."""
        import importlib

        import numpy

        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "blockade" or n.startswith("blockade."))
        ]
        modules += callers
        afters = _counter_hooks(self)
        for layer in LAYERS:
            mod = importlib.import_module(f"blockade.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or name in UNWRAPPED:
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # re-exported; wrapped where it is defined
                if name in COUNTED:
                    wrapper = self.wrap_counted(fn, name)
                else:
                    wrapper = self.wrap(fn, name, afters.get(name))
                self._replace_everywhere(fn, wrapper, modules)

        from blockade.basis import SparseIntMatrix

        SparseIntMatrix.matvec_int = self.wrap(SparseIntMatrix.matvec_int, "basis.matvec_int")
        numpy.linalg.eigh = self.wrap(numpy.linalg.eigh, "dynamics.eigh", afters["dynamics.eigh"])


def _counter_hooks(tracer: Tracer) -> dict:
    """Counters recorded after a wrapped call returns, keyed by span name."""

    def commutator(result, args):
        n = len(result.terms)
        tracer.count_add("words.commutator_H.terms_out", n)
        tracer.count_max("words.terms_max", n)

    def basis(result, args):
        tracer.count_max("basis.build_basis.dim_max", result.dimension)

    def drive(result, args):
        tracer.count_max("basis.hamiltonian_matrix.nnz_max", len(result.entries))

    def oracle(result, args):
        # the largest exact integer: a nested-commutator expectation numerator
        bits = max(abs(v.numerator).bit_length() for v in result.ad_expectations.values())
        tracer.count_max("dynamics.taylor_oracle.bits_max", bits)

    def eigh(result, args):
        tracer.count_max("dynamics.eigh.dim_max", args[0].shape[0])

    def evolve(result, args):
        tracer.count_add("dynamics.evolve.points", len(result.times))

    return {
        "words.commutator_H": commutator,
        "basis.build_basis": basis,
        "basis.hamiltonian_matrix": drive,
        "dynamics.taylor_oracle": oracle,
        "dynamics.eigh": eigh,
        "dynamics.evolve": evolve,
    }
