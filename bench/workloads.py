"""The benchmark's workloads, each a closed loop of sessions.

A session runs the library's public API on inputs drawn from the workload
seed and the session index.  One session runs at a time and the verifier
waits for every answer.  Only the wire workload uses a second thread, for
the TCP server.

    honest-desk   protocol 1 on desk-protocol, ideal prover, 1000 rounds a
                  session; output bits go through Toeplitz extraction, per
                  session and for the first POOL_SESSIONS sessions pooled
    garbage-desk  single-round trials on desk-protocol against the
                  classical-random prover, 16 trials a session
    wire-micro    protocol 1 on micro over TCP loopback, qsim-micro prover
                  on the client, 256 rounds a session

run_session returns the session and its correctness gate, a callable that
gives None or the reason the session failed.  The caller times
run_session and calls the gate afterwards, outside the timed region.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter, process_time
from typing import Callable

import numpy as np

from clawrand import clawfree, extract, get_profile, protocol, qsim, wire
from clawrand.modq import canonical_json
from clawrand.rngstream import substream

from tracing import SERVER_THREAD

CLASSICAL_BOUND = 0.75  # best classical single-round success rate
GARBAGE_TRIALS = 16
# sessions whose output bits the pooled extraction takes: a fixed number,
# so its cost and memory do not depend on how many sessions a run fits in
POOL_SESSIONS = 32
JOIN_TIMEOUT_S = 60.0


class OpClock:
    """Times a session's ops from outside: wall and process CPU time at its
    start, then at the moment each op closes."""

    def __init__(self):
        self.start = perf_counter()
        self.cpu_start = process_time()
        self.closes: list[float] = []
        self.cpu_closes: list[float] = []

    def close(self):
        self.closes.append(perf_counter())
        self.cpu_closes.append(process_time())

    def intervals(self) -> np.ndarray:
        """(wall, CPU) seconds of each op, one row per op."""
        walls = np.diff(np.array([self.start] + self.closes))
        cpus = np.diff(np.array([self.cpu_start] + self.cpu_closes))
        return np.stack([walls, cpus], axis=1).astype(np.float32)


class ProverProxy:
    """Forwards the Protocol 1 prover calls to a library prover.

    end_round is the engine's round-closing hook, so a local session's ops
    are timed here; on_key runs after each key is handed over, which is the
    moment the first op is ready."""

    def __init__(self, inner, clock: OpClock | None = None, on_key=None):
        self.inner = inner
        self.wants_trapdoor = getattr(inner, "wants_trapdoor", False)
        self.clock = clock
        self.on_key = on_key

    def new_key(self, key):
        self.inner.new_key(key)
        if self.on_key is not None:
            self.on_key()

    def next_sample(self):
        return self.inner.next_sample()

    def answer(self, c, t=None):
        return self.inner.answer(c, t)

    def end_round(self, index, refresh):
        if self.clock is not None:
            self.clock.close()


@dataclass
class Session:
    index: int
    attempted: int
    ops: int  # ops completed
    digest: str  # SHA-256 of the session's transcript
    info: dict = field(default_factory=dict)
    wall: float = 0.0
    cpu: float = 0.0
    region: tuple[float, float] | None = None  # (start, last op close) on perf_counter
    # (wall, CPU) seconds of each op; float32 keeps the benchmark's own
    # memory small, so peak RSS does not grow with the number of ops run
    intervals: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.float32))
    failure: str | None = None
    traced: bool = False
    speed: float = 1.0  # reference time / calibration time around the session


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextmanager
def _swapped(obj, attr, value):
    orig = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, orig)


def _with_keys(run, epochs):
    """Run a session and return its transcript and {epoch: key} for the
    keys protocol.gen made in the given epochs.  Other keys are not kept,
    so a replay adds little to the benchmark's peak memory."""
    keys = {}
    made = 0
    orig = protocol.gen

    def recording_gen(*args, **kwargs):
        nonlocal made
        key = orig(*args, **kwargs)
        if made in epochs:
            keys[made] = key
        made += 1
        return key

    with _swapped(protocol, "gen", recording_gen):
        tr = run()
    return tr, keys


def check_protocol1(tr, replay) -> str | None:
    """Gate for an honest Protocol 1 session.

    The verdict must match a recomputation from the records, and a session
    whose test passes reach the Protocol 1 threshold (1 - gamma) * p_test * N,
    computed here from the profile, must be accepted.  Every answer
    the verifier grades deterministically must pass: each preimage answer,
    and each equation answer whose d is in both good sets.  An equation
    answer outside the good sets is scored by a coin, so a failed one is
    looked up in the keys of replay(epochs), a rerun of the session that
    returns (transcript, {epoch: key}) for the epochs asked for."""
    prof = get_profile(tr.profile["name"])
    if protocol.protocol1_verdict(tr.records, prof, tr.n_rounds) != tr.accepted:
        return "verdict differs from the one recomputed from the records"
    threshold = (1 - prof.gamma) * prof.p_test * tr.n_rounds
    if tr.test_passes >= threshold - 1e-9 and not tr.accepted:
        return f"rejected with {tr.test_passes} test passes, threshold {threshold:g}"
    failed = [r for r in tr.records if r.w == 0]
    for r in failed:
        if "malformed" in r.answer:
            return f"round {r.index}: {r.answer['malformed']}"
        if r.challenge == 1:
            return f"round {r.index}: honest preimage answer rejected"
    if not failed:
        return None
    rerun, keys = replay({r.key_epoch for r in failed})
    if rerun.to_jsonl() != tr.to_jsonl():
        return "a rerun with the same seed gave a different transcript"
    ring = prof.ring()
    for r in failed:
        x0, x1 = clawfree.claw_from_image(keys[r.key_epoch], np.asarray(r.y, dtype=np.int64))
        d = np.asarray(r.answer["d"], dtype=np.int64)
        if clawfree.in_good_set(ring, 0, x0, d) and clawfree.in_good_set(ring, 1, x1, d):
            return f"round {r.index}: honest equation answer in the good set rejected"
    return None


def _toeplitz_row_errors(seed: extract.ToeplitzSeed, bits, out, rows) -> int:
    """Recompute the chosen output bits as plain dot products with Toeplitz
    rows and count mismatches."""
    bad = 0
    for i in rows:
        # T[i, j] = seed[i - j + n_in - 1], so row i is seed[i : i + n_in] reversed
        row = seed.bits[i : i + seed.n_in][::-1]
        bad += int((int(row @ bits) & 1) != int(out[i]))
    return bad


class _Workload:
    name = ""
    verifier_thread = "MainThread"  # the thread whose ops are timed
    # op_tail_ms's percentile: the highest with at least 10 ops beyond it in
    # a 30-second run, fixed so that a faster program cannot change it
    tail_percentile = 99.0

    def finish(self, seed: int) -> tuple[Callable[[], str | None], int]:
        """Work done once after the last session.  Returns its gate and the
        number of bits it extracted."""
        return (lambda: None), 0


class HonestDesk(_Workload):
    name = "honest-desk"

    def __init__(self):
        self.profile = get_profile("desk-protocol")
        self.ops_per_session = self.profile.N
        self.pool: list[np.ndarray] = []

    def _run(self, seed, index, wrap=lambda p: p):
        prover = qsim.IdealProver(substream(seed, self.name, index, "prover"))
        return protocol.run_protocol1(
            self.profile, wrap(prover), substream(seed, self.name, index, "verifier")
        )

    def run_session(self, seed: int, index: int, clock: OpClock, on_ready=None):
        tr = self._run(seed, index, lambda p: ProverProxy(p, clock, on_ready))
        text = tr.to_jsonl()
        bits = np.asarray(tr.output_bits, dtype=np.int64)
        tseed = extract.ToeplitzSeed.random(
            substream(seed, self.name, index, "toeplitz"), bits.size, bits.size // 2
        )
        out = extract.extract(tseed, bits)
        if len(self.pool) < POOL_SESSIONS:
            self.pool.append(bits.astype(np.int8))

        def check():
            rows = substream(seed, self.name, index, "rows").integers(0, tseed.n_out, size=8)
            if _toeplitz_row_errors(tseed, bits, out, rows):
                return "dense extraction disagrees with Toeplitz rows"
            return check_protocol1(tr, lambda epochs: _with_keys(lambda: self._run(seed, index), epochs))

        session = Session(
            index=index,
            attempted=self.ops_per_session,
            ops=len(tr.records),
            digest=_sha(text),
            info={"accepted": tr.accepted, "tests": tr.test_count, "passes": tr.test_passes},
        )
        return session, check

    def finish(self, seed: int):
        """Extract from the first POOL_SESSIONS sessions' output bits at
        once, which takes the FFT path."""
        bits = np.concatenate(self.pool)
        tseed = extract.ToeplitzSeed.random(substream(seed, self.name, "pool"), bits.size, bits.size // 2)
        out = extract.extract(tseed, bits)

        def check():
            rows = substream(seed, self.name, "pool-rows").integers(0, tseed.n_out, size=32)
            if _toeplitz_row_errors(tseed, bits, out, rows):
                return "pooled extraction disagrees with Toeplitz rows"
            return None

        return check, int(bits.size)


class GarbageDesk(_Workload):
    name = "garbage-desk"
    tail_percentile = 90.0  # ~700-900 trials in 30 s: p99 would rest on <10

    def __init__(self):
        self.profile = get_profile("desk-protocol")
        self.ops_per_session = GARBAGE_TRIALS

    def run_session(self, seed: int, index: int, clock: OpClock, on_ready=None):
        rng = substream(seed, self.name, index, "verifier")
        prover = ProverProxy(
            protocol.RandomNoiseProver(substream(seed, self.name, index, "prover")), on_key=on_ready
        )
        reports = []
        for _ in range(GARBAGE_TRIALS):
            reports.append(protocol.single_round_test(self.profile, prover, 1, rng))
            clock.close()
        rate = sum(r.successes for r in reports) / len(reports)

        def check():
            if rate > CLASSICAL_BOUND:
                return f"garbage prover scored {rate:.3f} > {CLASSICAL_BOUND}"
            return None

        session = Session(
            index=index,
            attempted=self.ops_per_session,
            ops=len(reports),
            digest=_sha(canonical_json([asdict(r) for r in reports])),
            info={"rate": rate},
        )
        return session, check


class WireMicro(_Workload):
    name = "wire-micro"
    verifier_thread = SERVER_THREAD
    prover_kind = "qsim-micro"

    def __init__(self):
        self.profile = get_profile("micro")
        self.ops_per_session = self.profile.N

    def _local(self, session_seed: int):
        """The same session run in-process, as the wire must reproduce it."""
        prover = qsim.SimulatedProver(substream(session_seed, "prover", self.prover_kind))
        return protocol.run_protocol1(
            self.profile, prover, substream(session_seed, "verifier", "protocol1")
        )

    def run_session(self, seed: int, index: int, clock: OpClock, on_ready=None):
        session_seed = int(substream(seed, self.name, index).integers(0, 2**63))

        class ClosingRemoteProver(wire.RemoteProver):
            def end_round(self, round_index, refresh):
                super().end_round(round_index, refresh)
                clock.close()

        make_prover = wire.prover_catalog()[self.prover_kind]

        def catalog():
            return {self.prover_kind: lambda rng: ProverProxy(make_prover(rng), on_key=on_ready)}

        held: dict = {}
        listening = threading.Event()

        def serve():
            def on_listen(port):
                held["port"] = port
                listening.set()

            try:
                held["tr"] = wire.serve_tcp(
                    "127.0.0.1", 0, self.profile, "protocol1", session_seed, None, on_listen
                )
            except Exception as exc:  # raised again in the calling thread below
                held["error"] = f"server: {type(exc).__name__}: {exc}"
            finally:
                listening.set()

        server = threading.Thread(target=serve, name=SERVER_THREAD, daemon=True)
        with _swapped(wire, "RemoteProver", ClosingRemoteProver), _swapped(wire, "prover_catalog", catalog):
            server.start()
            try:
                listening.wait(JOIN_TIMEOUT_S)
                if "port" not in held:
                    raise RuntimeError(held.get("error", "server did not start listening"))
                try:
                    final = wire.connect_tcp("127.0.0.1", held["port"], self.prover_kind, session_seed)
                except BaseException as exc:
                    # The client's socket closes only when the frames in the
                    # traceback let go of it; until then the server waits in
                    # recv.  A client that never connected leaves it in accept.
                    traceback.clear_frames(exc.__traceback__)
                    try:
                        socket.create_connection(("127.0.0.1", held["port"]), timeout=5).close()
                    except OSError:
                        pass
                    raise
            finally:
                server.join(JOIN_TIMEOUT_S)
        if server.is_alive():
            raise RuntimeError("server thread did not finish")
        if "error" in held:
            raise RuntimeError(held["error"])
        tr = held["tr"]
        text = tr.to_jsonl()

        def check():
            failed_epochs = {r.key_epoch for r in tr.records if r.w == 0}
            local, keys = _with_keys(lambda: self._local(session_seed), failed_epochs)
            if local.to_jsonl() != text:
                return "server transcript differs from the local run with the same seeds"
            if (final.get("accepted"), final.get("test_passes")) != (tr.accepted, tr.test_passes):
                return "the client's final message disagrees with the server transcript"
            return check_protocol1(tr, lambda epochs: (local, keys))

        session = Session(
            index=index,
            attempted=self.ops_per_session,
            ops=len(tr.records),
            digest=_sha(text),
            info={"accepted": tr.accepted, "tests": tr.test_count, "passes": tr.test_passes},
        )
        return session, check


WORKLOADS = {w.name: w for w in (HonestDesk, GarbageDesk, WireMicro)}
