"""Fuzz of either side's frames in a protocol-1 session over a socket pair.

One frame of the client (hello, sample, answer) or of the server (hello,
key, challenge, decision, final) is dropped, sent twice, cut short before
the peer's writes are shut down, or has one of its top-level values
replaced by raw JSON that no honest peer sends.  Whatever the frame, each
side must end in its own return value (a transcript, or the final
message) or a WireError, never another exception, and neither may hang.
"""

import socket
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clawrand import wire
from clawrand.modq import canonical_json
from clawrand.profiles import get_profile
from clawrand.protocol import Transcript

# raw JSON text put in place of one value of the frame
_VALUES = {
    "string": '"x"',
    "float": "0.5",
    "deep": "[" * 100_000 + "]" * 100_000,  # past the parser's recursion limit
    "long-int": "9" * 5000,  # past the int-string digit limit
    "wide-int": str(2**70),  # past int64
    "inf": "1e400",  # parses as a float infinity
}
_HOLE = "@@hole@@"
_OPS = ["drop", "twice", "cut", *_VALUES]


class FuzzedChannel(wire.LineChannel):
    """A channel that alters its `target`-th outgoing frame."""

    def __init__(self, sock, target: int, op: str, key_index: int):
        sock.settimeout(wire._SOCKET_TIMEOUT)
        super().__init__(sock.makefile("rb"), sock.makefile("wb"))
        self.sock = sock
        self.target, self.op, self.key_index = target, op, key_index
        self.sent = 0

    def send(self, obj: dict):
        index, self.sent = self.sent, self.sent + 1
        if index != self.target:
            super().send(obj)
        elif self.op == "twice":
            super().send(obj)
            super().send(obj)
        elif self.op == "cut":
            text = canonical_json(obj)
            self._write(text[: len(text) // 2])
            self.sock.shutdown(socket.SHUT_WR)
        elif self.op != "drop":
            key = sorted(obj)[self.key_index % len(obj)]
            text = canonical_json({**obj, key: _HOLE})
            self._write(text.replace(f'"{_HOLE}"', _VALUES[self.op]) + "\n")

    def _write(self, text: str):
        try:
            self.writer.write(text.encode("utf-8"))
            self.writer.flush()
        except OSError as exc:
            raise wire.WireError(f"send failed: {exc}") from exc


def _run(thread_fn, outcome, side):
    try:
        outcome[side] = thread_fn()
    except Exception as exc:  # recorded, so the test names any that is not a WireError
        outcome[side] = exc


# The most top-level keys in one frame: the server's hello has six (fmt,
# mode, profile, role, rounds, type).
_KEYS = 6


@settings(max_examples=25, deadline=None)
@given(
    target=st.integers(0, 12),
    op=st.sampled_from(_OPS),
    key_index=st.integers(0, _KEYS - 1),
)
def test_fuzzed_client_frame_ends_in_a_defined_outcome(target, op, key_index):
    _fuzzed_session("client", target, op, key_index)


@settings(max_examples=23, deadline=None)
@given(
    target=st.integers(0, 14),  # the server sends 15 frames in this session
    op=st.sampled_from(_OPS),
    key_index=st.integers(0, _KEYS - 1),
)
@example(target=0, op="inf", key_index=4)  # the hello's rounds
@example(target=2, op="inf", key_index=0)  # the first challenge's c
def test_fuzzed_server_frame_ends_in_a_defined_outcome(target, op, key_index):
    _fuzzed_session("server", target, op, key_index)


def _fuzzed_session(side, target, op, key_index):
    server_sock, client_sock = socket.socketpair()
    outcome = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wire, "_SOCKET_TIMEOUT", 0.2)
        if side == "server":
            server_chan = FuzzedChannel(server_sock, target, op, key_index)
            client_chan = wire.LineChannel.from_socket(client_sock)
        else:
            server_chan = wire.LineChannel.from_socket(server_sock)
            client_chan = FuzzedChannel(client_sock, target, op, key_index)

    def serve():
        try:
            # at seed 7 the five rounds mix test and generation rounds, both
            # answer kinds and two key refreshes
            profile = get_profile("micro", p_test=0.5)
            return wire.serve_session(server_chan, profile, "protocol1", 7, n_rounds=5)
        finally:
            server_chan.close()
            server_sock.close()

    def connect():
        try:
            return wire.connect_session(client_chan, "classical-committed", 7)
        finally:
            client_chan.close()
            client_sock.close()

    threads = [
        threading.Thread(target=_run, args=(serve, outcome, "server"), daemon=True),
        threading.Thread(target=_run, args=(connect, outcome, "client"), daemon=True),
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(5)
    assert not any(th.is_alive() for th in threads)
    assert isinstance(outcome["server"], (Transcript, wire.WireError)), repr(outcome["server"])
    assert isinstance(outcome["client"], (dict, wire.WireError)), repr(outcome["client"])
