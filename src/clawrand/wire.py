"""Newline-delimited JSON wire protocol for running the interactive
protocols across a TCP socket or a stdio pipe.

Message types: hello, key, sample, challenge, answer_eq, answer_pre,
decision, final.  Vectors and matrices use the same JSON schema as the
in-process serializers.  A decision closes a round and carries flow
control only (the refresh flag); per-round grades stay on the verifier
until the final message, matching the in-protocol information flow.  The
trapdoor never crosses the wire, so trapdoor-privileged provers cannot run
on the client side.  The verifier's hello names the wire format, and a
client refuses any other.
"""

from __future__ import annotations

import json
import logging
import socket

import numpy as np

from .clawfree import PublicKey, public_key_from_json, public_key_to_json
from .modq import canonical_json, exact_int
from .profiles import ParameterProfile, get_profile
from .protocol import SessionAbort, Transcript, prover_catalog, run_protocol1, run_protocol2, simplified_provers
from .rngstream import substream

log = logging.getLogger("clawrand.wire")

# Longest frame accepted, newline included; the largest legitimate one, a
# desk-protocol key, is ~12 KB.
MAX_LINE_BYTES = 1 << 20
# Seconds a socket read or write may block: a silent or stalled peer ends
# the session with WireError instead of hanging it.
_SOCKET_TIMEOUT = 60.0
# Wire format named in the verifier's hello.  A format-1 server re-requests
# images by decision frames, which this client would count as closed rounds.
_FMT = 2


class WireError(SessionAbort):
    """Transport or framing failure: aborts the session instead of being
    scored as a bad answer."""


class LineChannel:
    """One JSON object per line over a pair of byte streams."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    def from_socket(cls, sock: socket.socket) -> "LineChannel":
        sock.settimeout(_SOCKET_TIMEOUT)
        return cls(sock.makefile("rb"), sock.makefile("wb"))

    def send(self, obj: dict):
        try:
            self.writer.write((canonical_json(obj) + "\n").encode("utf-8"))
            self.writer.flush()
        except OSError as exc:
            raise WireError(f"send failed: {exc}") from exc

    def recv(self, *expected_types: str) -> dict:
        try:
            line = self.reader.readline(MAX_LINE_BYTES + 1)
        except OSError as exc:
            raise WireError(f"receive failed: {exc}") from exc
        if not line:
            raise WireError("connection closed")
        if len(line) > MAX_LINE_BYTES:
            raise WireError(f"frame longer than {MAX_LINE_BYTES} bytes")
        try:
            obj = json.loads(line.decode("utf-8"))
        # bad UTF-8, bad JSON or an int past the digit limit; or deep nesting
        except (ValueError, RecursionError) as exc:
            raise WireError(f"bad message framing: {exc}") from exc
        if not isinstance(obj, dict):
            raise WireError(f"bad message framing: expected an object, got {type(obj).__name__}")
        if expected_types and obj.get("type") not in expected_types:
            raise WireError(f"expected {expected_types}, got {obj.get('type')!r}")
        return obj

    def close(self):
        # makefile wrappers keep the socket alive until both are closed
        for stream in (self.writer, self.reader):
            try:
                stream.close()
            except Exception:
                pass


class RemoteProver:
    """Server-side adapter presenting a connected client as a prover of
    either protocol: answer(c, t) for Protocol 1, round2(c, t) for the
    simplified protocol.  Both send one challenge frame and receive one
    answer frame.  Frame values are passed on unconverted, so the verifier
    checks a remote answer exactly as it checks a local one."""

    wants_trapdoor = False

    def __init__(self, chan: LineChannel):
        self.chan = chan
        self._epoch = -1

    def new_key(self, pub: PublicKey):
        self._epoch += 1
        self.chan.send({"type": "key", "epoch": self._epoch, **public_key_to_json(pub)})

    def next_sample(self):
        return self.chan.recv("sample")["y"]

    def answer(self, c: int, t=None):
        msg = self._challenge(c, t)
        if msg["type"] == "answer_eq":
            return ("eq", msg["u"], msg["d"])
        return ("pre", msg["b"], msg["x"])

    def round2(self, c: int, t: int):
        msg = self._challenge(c, t)
        if msg["type"] == "answer_eq":
            return (msg["e"], msg.get("k"))
        return msg["v"]

    def _challenge(self, c: int, t) -> dict:
        self.chan.send({"type": "challenge", "c": c, "t": t})
        return self.chan.recv("answer_eq", "answer_pre")

    def end_round(self, index: int, refresh: bool):
        self.chan.send({"type": "decision", "round": index, "refresh": refresh})


def serve_session(
    chan: LineChannel,
    profile: ParameterProfile,
    mode: str,
    seed: int,
    n_rounds: int | None = None,
) -> Transcript:
    """Run the verifier side over an established channel."""
    hello = chan.recv("hello")
    if hello.get("role") != "prover":
        raise WireError(f"expected a prover, got role {hello.get('role')!r}")
    log.info("prover %r connected; running %s on %s", hello.get("prover"), mode, profile.name)
    chan.send(
        {
            "type": "hello",
            "role": "verifier",
            "fmt": _FMT,
            "mode": mode,
            "profile": profile.as_dict(),
            "rounds": n_rounds if n_rounds is not None else profile.N,
        }
    )
    run = {"protocol1": run_protocol1, "protocol2": run_protocol2}.get(mode)
    if run is None:
        raise WireError(f"mode {mode!r} is not servable")
    tr = run(profile, RemoteProver(chan), substream(seed, "verifier", mode), n_rounds=n_rounds)
    chan.send(
        {
            "type": "final",
            "accepted": tr.accepted,
            "test_passes": tr.test_passes,
            "test_rounds": tr.test_count,
        }
    )
    return tr


def connect_session(chan: LineChannel, prover_kind: str, seed: int) -> dict:
    """Run a local prover against a remote verifier; returns the final
    message."""
    chan.send({"type": "hello", "role": "prover", "prover": prover_kind})
    hello = chan.recv("hello")
    if hello.get("fmt") != _FMT:
        raise WireError(f"verifier speaks wire format {hello.get('fmt')!r}, expected {_FMT}")
    profile = _parse("hello", lambda: get_profile(hello["profile"]["name"]))
    mode = hello.get("mode")
    if mode not in ("protocol1", "protocol2"):
        raise WireError(f"verifier offers unknown mode {mode!r}")
    rounds = _parse("hello", lambda: exact_int(hello["rounds"]))
    catalog = simplified_provers() if mode == "protocol2" else prover_catalog()
    if prover_kind not in catalog:
        raise WireError(f"prover {prover_kind!r} cannot play {mode}")
    prover = catalog[prover_kind](substream(seed, "prover", prover_kind))
    if mode == "protocol2":
        return _client_loop2(chan, prover)
    if getattr(prover, "wants_trapdoor", False):
        raise WireError(f"prover {prover_kind!r} needs the trapdoor and cannot run remotely")

    rounds_done = 0
    keyed = False
    # whether this client's last frame was a sample: a challenge answers
    # exactly that sample, so one without it has no state to answer from
    sample = False
    while True:
        msg = chan.recv()
        kind = msg.get("type")
        if kind == "final":
            return msg
        if kind in ("challenge", "decision") and not keyed:
            raise WireError(f"{kind} frame before any key")
        if kind == "key":
            prover.new_key(_parse("key", lambda: public_key_from_json(msg, profile)))
            keyed = True
            sample = rounds_done < rounds
        elif kind == "challenge":
            if not sample:
                raise WireError("challenge frame without a sample to answer")
            tag, a, b = prover.answer(_parse("challenge", lambda: exact_int(msg["c"])))
            if tag == "eq":
                chan.send({"type": "answer_eq", "u": _plain(a), "d": _plain(b)})
            else:
                chan.send({"type": "answer_pre", "b": _plain(a), "x": _plain(b)})
            sample = False
        elif kind == "decision":
            rounds_done += 1
            sample = not msg.get("refresh") and rounds_done < rounds
        else:
            raise WireError(f"unexpected message {kind!r}")
        if sample:
            chan.send({"type": "sample", "y": _plain(prover.next_sample())})


def _plain(v):
    """A prover's value as builtins, unconverted: graded as a local one is."""
    return np.asarray(v).tolist()


def _parse(kind: str, decode):
    """Run decode() on fields of a peer's frame; a missing or ill-typed
    field is the peer's framing error."""
    try:
        return decode()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WireError(f"malformed {kind} frame: {exc}") from exc


def _client_loop2(chan: LineChannel, prover) -> dict:
    while True:
        msg = chan.recv()
        if msg.get("type") == "final":
            return msg
        if msg.get("type") != "challenge":
            raise WireError(f"unexpected message {msg.get('type')!r}")
        c, t = _parse("challenge", lambda: (exact_int(msg["c"]), exact_int(msg["t"] or 0)))
        ans = prover.round2(c, t)
        if c == 0:
            e, k = ans
            chan.send({"type": "answer_eq", "e": _plain(e), "k": _plain(k)})
        else:
            chan.send({"type": "answer_pre", "v": _plain(ans)})


def serve_tcp(
    host: str,
    port: int,
    profile: ParameterProfile,
    mode: str,
    seed: int,
    n_rounds: int | None = None,
    ready_callback=None,
) -> Transcript:
    """Listen for one prover connection and run a session."""
    with socket.create_server((host, port)) as srv:
        if ready_callback is not None:
            ready_callback(srv.getsockname()[1])
        conn, _ = srv.accept()
        with conn:
            chan = LineChannel.from_socket(conn)
            tr = serve_session(chan, profile, mode, seed, n_rounds)
            chan.close()
            return tr


def connect_tcp(host: str, port: int, prover_kind: str, seed: int) -> dict:
    with socket.create_connection((host, port)) as sock:
        chan = LineChannel.from_socket(sock)
        final = connect_session(chan, prover_kind, seed)
        chan.close()
        return final
