"""Helpers of the seqtoa benchmark that do not depend on seqtoa.

Standard library only, so that importing this module adds nothing to the
measured set-up time of a workload.

* :func:`percentile` - nearest-rank percentile that refuses to report a tail
  it has too few samples for;
* :func:`self_times` - self time of nested spans;
* :class:`Tracer` - runtime wrapping of a program's functions into spans,
  with every patched attribute restored afterwards;
* :func:`check_sweep_rows` / :func:`check_frames` - comparison of a run's
  outputs with a recorded reference.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

MIN_BEYOND = 10

SWEEP_HEADER = ["sweep_value", "estimator", "block", "mse", "bias_norm", "crlb", "n_success", "n_diverged"]
CDF_HEADER = ["estimator", "squared_error", "cdf"]
STATE_BLOCKS = ("position", "velocity", "offset", "skew")

# Relative tolerance of the output check.  Re-solving the Step-I systems with an
# equivalent but differently rounded factorization (column-equilibrated,
# unpivoted QR) moves the per-cell MSE by at most 5e-10 on the noise sweep and
# 7e-6 at a 1 ms target clock offset; dropping pass 2 or the Gauss-Newton
# retraction moves it by at least 1.7e-2 on every workload.
RTOL = 1e-4


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie beyond
    the reported rank, so a p99 needs at least 1000 samples.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond it; need {min_beyond}")
    return sorted(samples)[rank - 1]


class Span:
    """One traced call: ``parent`` is an index into the span list or -1."""

    __slots__ = ("name", "start", "end", "parent", "item", "note", "error")

    def __init__(self, name, start, end, parent, item=None, note=None, error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.item = item
        self.note = note
        self.error = error

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Records a span for every call of the functions it patches.

    ``install`` replaces a function in every loaded module of ``package`` that
    binds it under the given name, so callers that imported it by name are
    traced too.  ``restore`` puts every original back.  ``item`` and ``block``
    tag the spans with the trial or frame they belong to.
    """

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.block = None
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _bindings(self, fn, attr: str):
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == self.package or name.startswith(prefix)):
                if vars(mod).get(attr) is fn:
                    yield mod

    def _patch(self, module, attr: str, make_wrapper) -> bool:
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        wrapper = make_wrapper(fn)
        for mod in self._bindings(fn, attr):
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, wrapper)
        return True

    def install(self, module, attr: str, span_name: str, note=None) -> bool:
        """Trace ``module.attr`` as ``span_name``; ``note(result)`` adds outcome facts.

        Returns False when the module has no such function.
        """

        def make(fn):
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                span = Span(span_name, 0, 0, parent, self.item)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span.start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    span.end = time.perf_counter_ns()
                    span.error = type(exc).__name__
                    raise
                finally:
                    self._stack.pop()
                span.end = time.perf_counter_ns()
                if note is not None:
                    span.note = note(result)
                return result

            return traced

        return self._patch(module, attr, make)

    def tag_items(self, module, attr: str) -> bool:
        """Tag spans inside ``module.attr`` with ``[block, *args[1:]]`` (its trial)."""

        def make(fn):
            def tagged(*args, **kwargs):
                outer = self.item
                self.item = [self.block, *args[1:]]
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.item = outer

            return tagged

        return self._patch(module, attr, make)

    @contextmanager
    def span(self, name: str, item=None):
        """A span opened by the benchmark itself, e.g. one per frame or per block."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0, 0, parent, item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        outer, self.item = self.item, item
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            self.item = outer

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


# --- output checks --------------------------------------------------------------


def _close(got: float, ref: float, scale: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= RTOL * scale


def check_sweep_rows(rows, ref_rows) -> list[str]:
    """Compare sweep-CSV data rows with reference rows; return the mismatches.

    Counts must match exactly.  MSE and CRLB must agree to ``RTOL`` relative;
    the bias norm, a small difference of errors, to ``RTOL`` times the
    reference RMS error of its cell.
    """
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for got, ref in zip(rows, ref_rows):
        key = "/".join(ref[:3])
        if got[:3] != ref[:3]:
            problems.append(f"row {got[:3]} where reference has {key}")
            continue
        if got[6:] != ref[6:]:
            problems.append(f"{key}: n_success,n_diverged {got[6:]} != {ref[6:]}")
        mse, bias, crlb = (float(x) for x in got[3:6])
        rmse, rbias, rcrlb = (float(x) for x in ref[3:6])
        if not _close(mse, rmse, abs(rmse)):
            problems.append(f"{key}: mse {mse!r} != {rmse!r}")
        if not _close(bias, rbias, math.sqrt(abs(rmse)) if not math.isnan(rmse) else 0.0):
            problems.append(f"{key}: bias_norm {bias!r} != {rbias!r}")
        if not _close(crlb, rcrlb, abs(rcrlb)):
            problems.append(f"{key}: crlb {crlb!r} != {rcrlb!r}")
    return problems


def check_frames(states, ref_states, scale) -> list[str]:
    """Compare per-frame ``[px, py, vx, vy, T, omega, iterations, converged]`` rows.

    A frame that failed has the row ``None`` and must fail in both.  State entries must agree to ``RTOL`` times ``scale`` (the CRLB standard
    deviation of each entry); iterations and convergence exactly.
    """
    if len(states) < len(ref_states):
        return [f"{len(states)} frames, reference has {len(ref_states)}"]
    problems = []
    for k, (got, ref) in enumerate(zip(states, ref_states)):
        if got is None or ref is None:
            if got is not ref:
                problems.append(f"frame {k}: failed in one run only ({got!r} vs {ref!r})")
            continue
        if got[6:] != ref[6:]:
            problems.append(f"frame {k}: iterations,converged {got[6:]} != {ref[6:]}")
        for i in range(6):
            if not _close(got[i], ref[i], scale[i]):
                problems.append(f"frame {k}: state[{i}] {got[i]!r} != {ref[i]!r}")
    return problems
