"""In-memory span tracer that wraps the program's public functions.

Each call of a wrapped function becomes one span: (name, start, end, parent
span, query id). Spans stay in memory and are written out once, at the end of
the traced run. A wrapper is installed under every name that refers to the
function in any ``cnnidx`` module, because callers such as ``search`` and
``invindex`` import ``hamming_to_many``, ``segment_means`` and ``pack_bits``
into their own namespace and look them up there.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Public functions on the index's build, load and query paths, by module.
# Scalar helpers called once per heap entry (pq.encode_word, pq.decode_word,
# embed.code_bytes) are left unwrapped: a span per call would cost more than
# the call, and their time shows in their caller's self time.
TARGETS = {
    "vecio": ["read_feature_file"],
    "pq": ["train", "segment_distances", "segment_distances_batch",
           "nearest_words", "nearest_words_batch", "reconstruct_batch"],
    "tifc": ["softmax", "softmax_rows", "top_words", "top_words_rows",
             "make_virtual_words"],
    "embed": ["segment_means", "pack_bits", "hamming_to_many"],
    "invindex": ["build", "save", "load"],
    "search": ["select_words", "query", "candidate_set", "batch_query"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Records spans of wrapped calls; ``query_id`` tags spans of one query.

    ``counters`` maps a span name to a function of the call's result that
    returns a tuple of counts, recorded per call with the query id.
    """

    def __init__(self, counters: dict | None = None):
        self.names: list[str] = []
        self.rows: list[tuple] = []  # (name index, start, end, parent, query id)
        self.stack: list[int] = []
        self.query_id = -1
        self.result_counts: dict[str, list[tuple]] = {}
        self.absent: list[str] = []  # TARGETS names the program does not have
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        counters = counters or {}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cnnidx" or key.startswith("cnnidx."))]
        for mod_name, fn_names in TARGETS.items():
            mod = importlib.import_module(f"cnnidx.{mod_name}")
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(mod, fn_name, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn, counters.get(name))
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is fn:
                            self._patches.append((m, attr, fn, wrapper))

    def _wrap(self, name: str, fn, count):
        nid = len(self.names)
        self.names.append(name)
        counts = self.result_counts.setdefault(name, []) if count else None
        rows, stack = self.rows, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rows[idx] = (nid, start, end, parent, self.query_id)
            if counts is not None:
                # counted after the span ends, so it is not in the span's time
                counts.append((self.query_id, *count(result)))
            return result

        return wrapper

    def install(self) -> None:
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn, _ in self._patches:
            setattr(m, attr, fn)

    def save(self, path) -> None:
        """Write every span, and the per-call counts, to one ``.npz`` file."""
        rows = np.array(self.rows, dtype=np.float64).reshape(-1, 5)
        counts = {f"count:{k}": np.array(v, dtype=np.int64)
                  for k, v in self.result_counts.items() if v}
        np.savez_compressed(
            path, names=np.array(self.names), absent=np.array(self.absent, dtype=str),
            name_idx=rows[:, 0].astype(np.int32), start=rows[:, 1], end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64), query_id=rows[:, 4].astype(np.int64),
            **counts)


def span_totals(path) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds (total minus the time of
    direct child spans) and call count, from a file written by ``save``."""
    with np.load(path) as f:
        names = [str(s) for s in f["names"]]
        name_idx, parent = f["name_idx"], f["parent"]
        dur = f["end"] - f["start"]
    child_time = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    out = {}
    for i, name in enumerate(names):
        sel = name_idx == i
        out[name] = {"s": float(dur[sel].sum()),
                     "self_s": float((dur[sel] - child_time[sel]).sum()),
                     "calls": int(sel.sum())}
    return out
