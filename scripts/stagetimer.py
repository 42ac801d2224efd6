"""Stage timings from the program itself, and the host factor of each pass.

`StageTimer` wraps named functions and methods of `cnnidx` in place while it
is on (`with timer:`) and restores them after, as `perfbench/spans.Tracer`
does, so the stage scripts time the real `invindex.load`, `search.query` and
`search.batch_query`. A stage names one or more of them by their dotted path
under `cnnidx`: a function (`invindex._read_header`) or a method
(`pq.PqCodebook.codes`). A function is replaced under every name that refers
to it in a `cnnidx` module, because callers import some into their own
namespace; a method is replaced on its class. Classes themselves are never
replaced, as `InvertedIndex` checks its quantizer with `isinstance`. A
stage's time is the self time of its calls: their wall time less that of the
wrapped calls made inside them on the same thread: each thread keeps its
own stack of open calls, so a build's helper threads add their calls' time
to their stages and take none from the caller's. A stage's time is so the
busy time of its calls summed over threads, and may exceed the wall time of
the call that ran them. A name that `cnnidx` does not have is a
`LookupError`, so a rename fails the scripts rather than dropping a stage.

The stage scripts time their passes on shared hosts whose speed moves by
tens of percent between runs. `PassFactors` takes a `perfbench/hostref.HostRef`
sample before the first pass and after every pass, so each pass lies between
two samples. As `perfbench/run.py` divides each timed call by its host
factor, a script divides each timing of a pass by the pass's factor, the mean
of those two samples over `hostref.REF_QUERY_S`: the corrected timing reads
as on a host on which one reference query takes `REF_QUERY_S`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostref  # noqa: E402


class _Stacks(threading.local):
    """One stack per thread: the wall time of the wrapped calls made inside
    each of the thread's open calls."""

    def __init__(self):
        self.calls: list[float] = []


class StageTimer:
    """Self time of each stage, summed over the calls made while it is on,
    on any thread.

    `counters` maps a wrapped name to a function of a call's result that
    returns counts; `counts[name]` sums them. Counting is in no stage's time.
    """

    def __init__(self, stages: dict[str, tuple[str, ...]], counters: dict | None = None):
        counters = counters or {}
        self.counts = dict.fromkeys(counters, 0)
        self._stacks = _Stacks()
        self._lock = threading.Lock()  # the sums take calls from every thread
        self._times = dict.fromkeys(stages, 0.0)
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        found, absent = [], []
        for stage, names in stages.items():
            for name in names:
                mod, *path, attr = name.split(".")
                owner = importlib.import_module(f"cnnidx.{mod}")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                (found if callable(fn) else absent).append((stage, name, owner, attr, fn))
        if absent:
            raise LookupError(f"cnnidx has no {', '.join(a[1] for a in absent)}")
        # after the imports above, so that every module that may call fn is here
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cnnidx" or key.startswith("cnnidx."))]
        for stage, name, owner, attr, fn in found:
            wrapper = self._wrap(stage, fn, counters.get(name), name)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn, wrapper))
            else:
                self._patches += [(m, a, fn, wrapper) for m in modules
                                  for a, v in vars(m).items() if v is fn]

    def _wrap(self, stage: str, fn, count, name: str):
        times, stacks, counts, lock = self._times, self._stacks, self.counts, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stacks.calls
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                inner = stack.pop()
            with lock:
                if count is not None:
                    counts[name] += count(result)
                times[stage] += t1 - t0 - inner
            if stack:
                stack[-1] += time.perf_counter() - t0
            return result

        return wrapper

    def __enter__(self) -> StageTimer:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def take(self) -> dict[str, float]:
        """Each stage's seconds since the last `take`, and start again from 0."""
        with self._lock:
            out = dict(self._times)
            self._times.update(dict.fromkeys(out, 0.0))
        return out


class PassFactors:
    """The host factor of each pass, from samples taken around it."""

    def __init__(self):
        self.ref = hostref.HostRef()
        self.ref.sample()

    def next(self) -> float:
        """End a pass: sample the host, and return the pass's factor, the mean
        of this sample and the one before it over `hostref.REF_QUERY_S`."""
        self.ref.sample()
        return (self.ref.seconds[-2] + self.ref.seconds[-1]) / 2 / hostref.REF_QUERY_S
