"""Pinned SHA-256 digests of the wire frames of whole sessions.

Each case runs serve_session and connect_session over a socket pair on a
fixed seed and hashes the bytes each side wrote, in send order, together
with the server's transcript (to_jsonl).  A change that only
restructures the transport or the verifier must leave every digest as it
is; a change that alters one changes what crosses the wire and must say
so.
"""

import hashlib
import socket
import threading

import pytest

from clawrand import wire
from clawrand.profiles import get_profile

SEED = 4101
ROUNDS = 40

# test rounds every fourth round on average, so 40 rounds carry challenges
# of both kinds and, in protocol 1, key refreshes
P_TEST = 0.25


class RecordingWriter:
    """A byte stream that keeps a copy of every write."""

    def __init__(self, stream):
        self.stream = stream
        self.data = bytearray()

    def write(self, b):
        self.data += b
        return self.stream.write(b)

    def flush(self):
        self.stream.flush()

    def close(self):
        self.stream.close()


def _channel(sock):
    sock.settimeout(30)
    writer = RecordingWriter(sock.makefile("wb"))
    return wire.LineChannel(sock.makefile("rb"), writer), writer


def session_digest(profile_name: str, mode: str, prover_kind: str) -> str:
    profile = get_profile(profile_name, p_test=P_TEST)
    a, b = socket.socketpair()
    server_chan, server_out = _channel(a)
    client_chan, client_out = _channel(b)
    held = {}

    def serve():
        try:
            held["tr"] = wire.serve_session(server_chan, profile, mode, SEED, ROUNDS)
        except Exception as exc:  # reported in the test's thread below
            held["error"] = exc

    th = threading.Thread(target=serve)
    th.start()
    try:
        final = wire.connect_session(client_chan, prover_kind, SEED)
    finally:
        th.join(30)
        for chan, sock in ((server_chan, a), (client_chan, b)):
            chan.close()
            sock.close()
    assert not th.is_alive()
    assert "error" not in held, held.get("error")
    assert final["type"] == "final"
    h = hashlib.sha256()
    for part in (bytes(server_out.data), bytes(client_out.data), held["tr"].to_jsonl().encode()):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


SESSIONS = {
    ("micro", "protocol1", "qsim-micro"):
        "baf7aea3cc2462198c6ed2f9b83764ef94770d15e43f167f824fb2026ded4bc6",
    ("micro", "protocol2", "device-honest"):
        "953c298ee7bd37df7e6f687d8e248a42eb7f3d3679e1559f99295548324d0e8d",
    ("desk-small", "protocol1", "classical-committed"):
        "e88a7a472ffb35161fb2f3477b6d6424ca090f7d50e077398a11f2b96bb33cc4",
}


@pytest.mark.parametrize("case", sorted(SESSIONS), ids=lambda c: "-".join(c))
def test_wire_frames_digest(case):
    assert session_digest(*case) == SESSIONS[case]
