"""Layer-boundary tracing for the rfvlc benchmark.

The tracer wraps public functions of rfvlc where one layer calls the next
(for example ``rfvlc.engine.run_trial``: the name the engine looks up when
it calls into the metrics layer) and keeps per-layer statistics in memory:

* a *span* records calls, total time and self time (total minus the time of
  nested spans) and, optionally, every call's duration and a tally taken
  from the result;
* a *counter* records calls only, for functions so cheap (about 1 us) that a
  timer would cost as much as the call.

Statistics are summed per layer rather than kept as one record per span,
because a traced sweep makes millions of spans.

Wrappers are installed for a traced repeat and removed after it, so the
untraced repeats run the program unmodified.

Pool workers are forked from the traced process and inherit the wrappers.
The chunk-boundary wrapper notices that it runs in a new process, zeroes
the inherited statistics, and after every chunk writes the worker's totals
to a spool directory; ``collect_children`` merges those files into the
parent's statistics once the sweep has returned.
"""

from __future__ import annotations

import array
import functools
import json
import os
import time
import uuid

_SPAN_FIELDS = 4  # calls, total seconds, self seconds, tally


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        self.spans: dict[str, list] = {}
        self.counts: dict[str, list] = {}
        self.samples: dict[str, array.array] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple] = []
        self._pid = os.getpid()
        self._token = ""
        self._flushed: dict[str, int] = {}

    # -- statistics ------------------------------------------------------

    def span_stats(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0, 0])

    def count(self, name: str) -> int:
        return self.counts.setdefault(name, [0])[0]

    def _zero(self):
        # In place: installed wrappers hold references to these objects.
        for st in self.spans.values():
            st[:] = [0, 0.0, 0.0, 0]
        for c in self.counts.values():
            c[0] = 0
        for s in self.samples.values():
            del s[:]
        self._stack.clear()
        self._flushed.clear()

    # -- wrappers --------------------------------------------------------

    def _patch(self, module, attr: str, make):
        original = getattr(module, attr, None)
        if original is None:
            name = f"{module.__name__}.{attr}"
            if name not in self.missing:  # wrappers are installed once per traced repeat
                self.missing.append(name)
            return
        wrapper = functools.wraps(original)(make(original))
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def span(self, module, attr: str, name: str, record: bool = False,
             tally=None):
        """Time every call of module.attr as span `name`.

        record keeps each call's duration; tally(result) is summed into the
        span's fourth field.
        """
        st = self.span_stats(name)
        samples = self.samples.setdefault(name, array.array("d")) if record else None
        stack = self._stack
        perf = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    child = stack.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - child
                    if stack:
                        stack[-1] += dt
                    if samples is not None:
                        samples.append(dt)
                if tally is not None:
                    st[3] += tally(result)
                return result
            return wrapper

        self._patch(module, attr, make)

    def counter(self, module, attr: str, name: str):
        """Count calls of module.attr, without timing them."""
        c = self.counts.setdefault(name, [0])

        def make(fn):
            def wrapper(*args, **kwargs):
                c[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._patch(module, attr, make)

    def chunk_boundary(self, module, attr: str, name: str, tally):
        """Count the engine's chunk jobs; flush worker statistics after each.

        functools.wraps keeps the job's module and qualified name, so the
        process pool pickles the wrapper by reference like the original.
        """
        st = self.span_stats(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                if os.getpid() != self._pid:
                    self._enter_child()
                result = fn(*args, **kwargs)
                st[0] += 1
                st[3] += tally(*args, **kwargs)
                if self._token:
                    self._flush()
                return result
            return wrapper

        self._patch(module, attr, make)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- pool workers ----------------------------------------------------

    def _enter_child(self):
        self._pid = os.getpid()
        self._token = uuid.uuid4().hex
        self._zero()

    def _flush(self):
        base = os.path.join(self.spool_dir, self._token)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": {k: v[0] for k, v in self.counts.items()}}, fh)
        for name, s in self.samples.items():
            done = self._flushed.get(name, 0)
            if len(s) > done:
                with open(f"{base}.{name}.bin", "ab") as fh:
                    s[done:].tofile(fh)
                self._flushed[name] = len(s)

    def collect_children(self):
        """Merge and delete the statistics flushed by pool workers."""
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            if entry.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
                for name, vals in data["spans"].items():
                    st = self.span_stats(name)
                    for i in range(_SPAN_FIELDS):
                        st[i] += vals[i]
                for name, n in data["counts"].items():
                    self.counts.setdefault(name, [0])[0] += n
            elif entry.endswith(".bin"):
                name = entry.split(".", 1)[1][:-len(".bin")]
                arr = self.samples.setdefault(name, array.array("d"))
                with open(path, "rb") as fh:
                    arr.fromfile(fh, os.path.getsize(path) // arr.itemsize)
            os.remove(path)
