"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the library's public functions where the engine looks
them up (for example ``protocol.gen`` and ``clawfree.invert``), so nothing
under ``src/`` changes.  Each wrapped call becomes a span: a name, its
start and end, the span that was open when it started, and the session
and op it belongs to.  ``ModRing.reduce`` and ``ModRing.matmul`` run too
often to time without distorting the result, so they are counted only.

Every thread keeps its own span list and counters, registered once under
a lock, so the wire workload's two threads never update shared state.
Spans stay in memory until ``write_spans`` is called after the run.
"""

from __future__ import annotations

import gzip
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

# The wire workload runs the verifier in a thread of this name; spans on
# it are the server's, spans elsewhere are the client's.
SERVER_THREAD = "wire-server"


class _ThreadState:
    def __init__(self, name: str):
        self.name = name
        self.spans: list = []  # (name, start, end, parent index, session, op)
        self.stack: list = []  # (index, name) of the spans open right now
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.session = -1
        self.clock = None  # the current session's OpClock; stamps the op index

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def _stamp(self) -> tuple[int, int]:
        """(session, op) for a span ending now."""
        return self.session, (len(self.clock.closes) if self.clock is not None else -1)

    def count(self, name: str, n: int = 1):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def thread_count(self, name: str) -> int:
        """The calling thread's count for name so far."""
        return self._state().counts.get(name, 0)

    def timed(self, name, fn, reject=None):
        """Wrap fn in a span.  With reject = (exception types...), the span
        is named name.accept on return and name.reject on those exceptions."""
        names = (name, name) if reject is None else (name + ".accept", name + ".reject")
        reject = reject or ()

        def wrapper(*args, **kwargs):
            st = self._state()
            idx = len(st.spans)
            parent = st.stack[-1][0] if st.stack else -1
            st.spans.append(None)
            st.stack.append((idx, name))
            label = names[0]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except reject:
                label = names[1]
                raise
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.spans[idx] = (label, t0, t1, parent) + self._stamp()

        return wrapper

    def record(self, name: str, t0: float, t1: float):
        """Add a finished span measured by the caller."""
        st = self._state()
        parent = st.stack[-1][0] if st.stack else -1
        st.spans.append((name, t0, t1, parent) + self._stamp())

    def counted(self, name, fn, inside=None):
        """Wrap fn so each call adds 1 to name, and also to name.in.<inside>
        when the innermost open span on this thread is named inside."""

        def wrapper(*args, **kwargs):
            st = self._state()
            st.counts[name] = st.counts.get(name, 0) + 1
            if inside is not None and st.stack and st.stack[-1][1] == inside:
                key = f"{name}.in.{inside}"
                st.counts[key] = st.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def spans(self):
        """(thread name, span tuple, index within its thread) for every
        finished span."""
        for st in self._states:
            for i, sp in enumerate(st.spans):
                if sp is not None:
                    yield st.name, sp, i

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for st in self._states:
            for k, v in st.counts.items():
                total[k] = total.get(k, 0) + v
        return total

    def by_name(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by span name."""
        out: dict[str, list[float]] = {}
        for _, sp, _ in self.spans():
            out.setdefault(sp[0], []).append(sp[2] - sp[1])
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part covered by its direct children on the same thread."""
        out: dict[str, float] = {}
        for st in self._states:
            child = [0.0] * len(st.spans)
            for sp in st.spans:
                if sp is not None and sp[3] >= 0:
                    child[sp[3]] += sp[2] - sp[1]
            for i, sp in enumerate(st.spans):
                if sp is not None:
                    out[sp[0]] = out.get(sp[0], 0.0) + (sp[2] - sp[1]) - child[i]
        return out

    def top_level_time(self, thread: str, regions: dict[int, tuple[float, float]]) -> float:
        """Summed duration of the outermost spans on one thread that lie
        inside their session's op region (first op start to last op end)."""
        total = 0.0
        for name, sp, _ in self.spans():
            if name != thread or sp[3] >= 0 or sp[4] not in regions:
                continue
            lo, hi = regions[sp[4]]
            if sp[1] >= lo and sp[2] <= hi:
                total += sp[2] - sp[1]
        return total

    def write_spans(self, path):
        """Write every span as gzipped CSV: thread, name, session, op,
        parent index, index, start and duration in microseconds."""
        origin = min((sp[1] for _, sp, _ in self.spans()), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("thread,name,session,op,parent,index,start_us,dur_us\n")
            for thread, sp, i in self.spans():
                fh.write(
                    f"{thread},{sp[0]},{sp[4]},{sp[5]},{sp[3]},{i},"
                    f"{(sp[1] - origin) * 1e6:.1f},{(sp[2] - sp[1]) * 1e6:.2f}\n"
                )


@contextmanager
def patched(tracer: Tracer, prover_proxy_cls):
    """Install the tracer's wrappers for the duration of the block.

    prover_proxy_cls is the benchmark's own prover adapter; its methods are
    timed as protocol.prover."""
    from clawrand import clawfree, extract, modq, protocol, qsim, wire
    from clawrand.trapdoor import DecodeFailure

    def bytes_counted(name, fn, extra=0):
        # the text is ASCII JSON, so its length is its size in bytes
        def wrapper(*args, **kwargs):
            text = fn(*args, **kwargs)
            tracer.count(name, len(text) + extra)
            return text

        return wrapper

    def by_role(base, fn):
        server = tracer.timed(f"wire.server.{base}", fn)
        client = tracer.timed(f"wire.client.{base}", fn)

        def wrapper(*args, **kwargs):
            if threading.current_thread().name == SERVER_THREAD:
                return server(*args, **kwargs)
            return client(*args, **kwargs)

        return wrapper

    def extract_by_path(fn):
        # only the dense path builds the Toeplitz matrix
        def wrapper(seed, bits_in):
            built = tracer.thread_count("extract.matrix")
            t0 = perf_counter()
            out = fn(seed, bits_in)
            t1 = perf_counter()
            path = "dense" if tracer.thread_count("extract.matrix") > built else "fft"
            tracer.record(f"extract.{path}", t0, t1)
            tracer.count(f"extract.{path}.bits", len(bits_in))
            return out

        return wrapper

    targets = [
        (protocol, "gen", lambda f: tracer.timed("clawfree.gen", f)),
        (clawfree, "gen_trap", lambda f: tracer.timed("trapdoor.gen_trap", f)),
        (clawfree, "invert", lambda f: tracer.timed("trapdoor.invert", f, reject=(DecodeFailure,))),
        (clawfree, "exhaustive_invert", lambda f: tracer.timed("trapdoor.exhaustive_invert", f)),
        (clawfree, "invert_sample", lambda f: tracer.counted("clawfree.invert_sample", f, inside="clawfree.gen")),
        (protocol, "claw_from_image", lambda f: tracer.counted("protocol.decode_attempts", f)),
        (protocol, "chk", lambda f: tracer.timed("clawfree.grade", f)),
        (protocol, "in_good_set", lambda f: tracer.timed("clawfree.grade", f)),
        (protocol, "claw_equation_bit", lambda f: tracer.timed("clawfree.grade", f)),
        (qsim, "prepare_sampling_state", lambda f: tracer.timed("qsim.prepare", f)),
        (qsim, "measure_image", lambda f: tracer.timed("qsim.measure", f)),
        (qsim, "measure_equation", lambda f: tracer.timed("qsim.measure", f)),
        (qsim, "measure_preimage", lambda f: tracer.timed("qsim.measure", f)),
        (protocol.Transcript, "to_jsonl", lambda f: tracer.timed("protocol.to_jsonl", bytes_counted("protocol.transcript_bytes", f))),
        (wire.LineChannel, "send", lambda f: by_role("send", tracer.counted("wire.frames", f))),
        (wire.LineChannel, "recv", lambda f: by_role("recv", f)),
        # LineChannel.send is the only caller; each frame adds a newline
        (wire, "canonical_json", lambda f: bytes_counted("wire.bytes", f, extra=1)),
        (modq.ModRing, "reduce", lambda f: tracer.counted("modq.reduce", f)),
        (modq.ModRing, "matmul", lambda f: tracer.counted("modq.matmul", f)),
        (extract.ToeplitzSeed, "matrix", lambda f: tracer.counted("extract.matrix", f)),
        (extract, "extract", extract_by_path),
    ]
    targets += [
        (prover_proxy_cls, meth, lambda f: tracer.timed("protocol.prover", f))
        for meth in ("new_key", "next_sample", "answer")
    ]
    saved = []
    try:
        for obj, attr, wrap in targets:
            orig = obj.__dict__[attr]
            saved.append((obj, attr, orig))
            setattr(obj, attr, wrap(orig))
        yield tracer
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def median_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0
