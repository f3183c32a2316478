import json
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from clawrand import wire
from clawrand.clawfree import gen, public_key_to_json
from clawrand.modq import canonical_json
from clawrand.profiles import get_profile
from clawrand.protocol import CommittedPreimageProver, run_protocol1
from clawrand.qsim import SimulatedProver
from clawrand.rngstream import substream


def run_socket_pair(profile, mode, prover_kind, seed, n_rounds):
    result = {}
    port_ready = threading.Event()

    def ready(port):
        result["port"] = port
        port_ready.set()

    def server():
        result["transcript"] = wire.serve_tcp(
            "127.0.0.1", 0, profile, mode, seed, n_rounds=n_rounds, ready_callback=ready
        )

    th = threading.Thread(target=server)
    th.start()
    assert port_ready.wait(10)
    result["final"] = wire.connect_tcp("127.0.0.1", result["port"], prover_kind, seed)
    th.join(30)
    assert not th.is_alive()
    return result


@pytest.mark.parametrize("prover_kind,cls", [
    ("classical-committed", CommittedPreimageProver),
    ("qsim-micro", SimulatedProver),
])
def test_socket_matches_local_byte_for_byte(prover_kind, cls):
    profile = get_profile("micro")
    seed = 77
    local = run_protocol1(
        profile,
        cls(substream(seed, "prover", prover_kind)),
        substream(seed, "verifier", "protocol1"),
        n_rounds=60,
    )
    remote = run_socket_pair(profile, "protocol1", prover_kind, seed, 60)
    assert remote["transcript"].to_jsonl() == local.to_jsonl()
    assert remote["final"]["accepted"] == local.accepted


def test_socket_garbage_prover_matches_local():
    # a garbage prover's images do not invert; the socket transcript
    # still matches the local one
    from clawrand.protocol import RandomNoiseProver

    profile = get_profile("desk-small")
    seed = 83
    local = run_protocol1(
        profile,
        RandomNoiseProver(substream(seed, "prover", "classical-random")),
        substream(seed, "verifier", "protocol1"),
        n_rounds=5,
    )
    remote = run_socket_pair(profile, "protocol1", "classical-random", seed, 5)
    assert remote["transcript"].to_jsonl() == local.to_jsonl()


@pytest.mark.parametrize("field", ["sample", "vector"])
def test_server_refuses_non_integral_frame_values(monkeypatch, field):
    # a client that sends fractional numbers gets every round scored 0:
    # the server checks frame values as the local verifier checks answers
    class Fractional(CommittedPreimageProver):
        def next_sample(self):
            y = super().next_sample()
            return y + 0.4 if field == "sample" else y

        def answer(self, c, t=None):
            kind, a, v = super().answer(c, t)
            return kind, a, np.asarray(v) + 0.5

    monkeypatch.setattr(wire, "prover_catalog", lambda: {"fractional": Fractional})
    out = run_socket_pair(get_profile("micro", p_test=0.5), "protocol1", "fractional", 17, 20)
    tr = out["transcript"]
    assert tr.test_count > 0 and tr.test_passes == 0
    assert all("malformed" in r.answer for r in tr.records)
    assert not out["final"]["accepted"]


def test_dead_client_aborts_session():
    import socket as socketlib

    profile = get_profile("micro")
    holder = {}
    ready = threading.Event()

    def cb(port):
        holder["port"] = port
        ready.set()

    def server():
        try:
            wire.serve_tcp("127.0.0.1", 0, profile, "protocol1", 1, 50, cb)
            holder["outcome"] = "completed"
        except wire.WireError:
            holder["outcome"] = "aborted"

    th = threading.Thread(target=server)
    th.start()
    assert ready.wait(10)
    with socketlib.create_connection(("127.0.0.1", holder["port"])) as sock:
        chan = wire.LineChannel.from_socket(sock)
        chan.send({"type": "hello", "role": "prover", "prover": "classical-committed"})
        chan.recv("hello")
        chan.recv("key")
        # hang up mid-protocol instead of sending a sample
        chan.close()
    th.join(20)
    assert holder["outcome"] == "aborted"


def test_silent_peer_times_out(monkeypatch):
    import socket as socketlib

    monkeypatch.setattr(wire, "_SOCKET_TIMEOUT", 0.2)
    holder = {}
    ready = threading.Event()

    def cb(port):
        holder["port"] = port
        ready.set()

    def server():
        try:
            wire.serve_tcp("127.0.0.1", 0, get_profile("micro"), "protocol1", 1, 5, cb)
            holder["outcome"] = "completed"
        except wire.WireError as exc:
            holder["outcome"] = str(exc)

    th = threading.Thread(target=server, daemon=True)
    th.start()
    assert ready.wait(10)
    # a client that connects and sends nothing
    with socketlib.create_connection(("127.0.0.1", holder["port"])):
        th.join(10)
        assert not th.is_alive()
    assert "timed out" in holder["outcome"]
    # and a server that accepts the connection but never answers
    with socketlib.create_server(("127.0.0.1", 0)) as srv:
        with pytest.raises(wire.WireError, match="timed out"):
            wire.connect_tcp("127.0.0.1", srv.getsockname()[1], "classical-committed", 1)


def test_socket_protocol2():
    profile = get_profile("micro", N=80, p_test=0.3)
    out = run_socket_pair(profile, "protocol2", "device-honest", 5, 80)
    assert out["final"]["accepted"]


def test_trapdoor_prover_refused_remotely():
    profile = get_profile("micro")
    port_ready = threading.Event()
    holder = {}

    def ready(port):
        holder["port"] = port
        port_ready.set()

    def server():
        try:
            wire.serve_tcp("127.0.0.1", 0, profile, "protocol1", 1, 10, ready)
        except (wire.WireError, OSError):
            pass  # client hangs up after refusing the prover kind

    th = threading.Thread(target=server)
    th.start()
    assert port_ready.wait(10)
    with pytest.raises(wire.WireError):
        wire.connect_tcp("127.0.0.1", holder["port"], "ideal", 1)
    th.join(10)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "clawrand.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_keygen_and_determinism(tmp_path):
    pub = tmp_path / "key.json"
    sec = tmp_path / "trap.json"
    r = run_cli("keygen", "--profile", "micro", "--seed", "9",
                "--public-out", str(pub), "--secret-out", str(sec))
    assert r.returncode == 0, r.stderr
    blob1 = pub.read_text()
    run_cli("keygen", "--profile", "micro", "--seed", "9", "--public-out", str(pub))
    assert pub.read_text() == blob1
    obj = json.loads(blob1)
    assert set(obj) == {"A", "u", "profile"}
    assert "trapdoor" in json.loads(sec.read_text())


def test_cli_run_single_round(tmp_path):
    out = tmp_path / "summary.json"
    r = run_cli(
        "run", "--mode", "single-round", "--prover", "classical-committed",
        "--profile", "micro", "--trials", "400", "--seed", "7", "--summary", str(out),
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads(out.read_text())
    assert 0.6 < summary["rate"] < 0.9
    assert summary["preimage_rate"] == 1.0


def test_cli_run_protocol1_transcript_determinism(tmp_path):
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = [
        "run", "--mode", "protocol1", "--prover", "qsim-micro", "--profile", "micro",
        "--rounds", "50", "--seed", "123",
    ]
    r1 = run_cli(*args, "--transcript", str(t1))
    r2 = run_cli(*args, "--transcript", str(t2))
    assert r1.returncode == 0, r1.stderr
    assert t1.read_bytes() == t2.read_bytes()
    head = json.loads(t1.read_text().splitlines()[0])
    assert head["fmt"] == 2


def test_cli_run_protocol2(tmp_path):
    out = tmp_path / "p2.json"
    r = run_cli(
        "run", "--mode", "protocol2", "--prover", "device-honest", "--profile", "micro",
        "--rounds", "200", "--seed", "11", "--summary", str(out),
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads(out.read_text())
    assert summary["mode"] == "protocol2"
    # protocol2 refuses protocol1 prover kinds
    assert run_cli("run", "--mode", "protocol2", "--prover", "ideal",
                   "--profile", "micro").returncode == 2


def test_cli_extract_roundtrip(tmp_path):
    bits = np.random.default_rng(5).integers(0, 2, size=4096)
    from clawrand.extract import bits_to_hex

    inp = tmp_path / "in.hex"
    outp = tmp_path / "out.hex"
    inp.write_text(bits_to_hex(bits) + "\n")
    r = run_cli(
        "extract", "--input", str(inp), "--output", str(outp),
        "--n-out", "1024", "--seed", "3",
    )
    assert r.returncode == 0, r.stderr
    from clawrand.extract import hex_to_bits

    assert hex_to_bits(outp.read_text()).size >= 1024


def test_cli_exit_codes(tmp_path):
    # the entry point's own exit status, one case per code; every other
    # case runs in-process in CLI_MATRIX
    assert run_cli("analyze", "--what", "rate", "--profile", "full-scale").returncode == 0
    r = run_cli("analyze", "--what", "all", "--profile", "full-scale")
    assert r.returncode == 2 and r.stderr.startswith("configuration error:") and r.stdout == ""
    (tmp_path / "bad.hex").write_text("zz not hex\n")
    r = run_cli("extract", "--input", str(tmp_path / "bad.hex"), "--output", str(tmp_path / "o.hex"))
    assert r.returncode == 3 and r.stderr.startswith("i/o error:") and "Traceback" not in r.stderr
    r = run_cli("run", "--mode", "protocol1", "--prover", "qsim-micro",
                "--profile", "desk-small", "--rounds", "5", "--seed", "1")
    assert r.returncode == 5  # state-vector guard at desk scale


_FULL = ["--profile", "full-scale"]
_EXTRACT = ["extract", "--output", "{tmp}/o.hex"]
_HEX = [*_EXTRACT, "--input", "{tmp}/in.hex"]  # 512 input bits
USAGE = "usage"  # argparse's rejection: exit 2 with its usage text, not main()'s refusal

CLI_MATRIX = [
    # every subcommand that takes a profile, on the print-only full-scale
    (["keygen", *_FULL, "--public-out", "{tmp}/k.json"], 2),
    (["run", *_FULL], 2),
    (["run", *_FULL, "--mode", "protocol2", "--prover", "device-honest"], 2),
    (["run", *_FULL, "--mode", "single-round"], 2),
    (["analyze", *_FULL, "--what", "moderate"], 2),
    (["analyze", *_FULL, "--what", "hardcore"], 2),
    (["analyze", *_FULL, "--what", "radius"], 2),
    (["analyze", *_FULL, "--what", "all"], 2),
    (["analyze", *_FULL, "--what", "lambda"], 0),
    (["analyze", *_FULL, "--what", "rate"], 0),
    (["serve", *_FULL, "--transport", "stdio"], 2),
    (["serve", *_FULL, "--port", "0"], 2),
    (["profiles", "--name", "full-scale"], 0),
    # provers from the other protocol's catalog, or from none
    (["run", "--mode", "protocol1", "--prover", "device-honest"], 2),
    (["run", "--mode", "protocol2", "--prover", "ideal"], 2),
    (["run", "--mode", "single-round", "--prover", "nope"], 2),
    # out-of-range seed, port and rate
    (["run", "--seed", "-1"], USAGE),
    (["run", "--seed", hex(1 << 64)], USAGE),
    (["keygen", "--seed", "x", "--public-out", "{tmp}/k.json"], USAGE),
    (["serve", "--port", "65536"], USAGE),
    (["connect", "--port", "-1"], USAGE),
    ([*_HEX, "--rate", "-0.5"], USAGE),
    ([*_HEX, "--rate", "1.5"], USAGE),
    ([*_HEX, "--rate", "nan"], USAGE),
    # extract input that is missing or not hex
    ([*_EXTRACT, "--input", "{tmp}/missing.hex"], 3),
    ([*_EXTRACT, "--input", "{tmp}/bad.hex"], 3),
    # negative, zero and oversized lengths
    ([*_HEX, "--n-in", "-8"], USAGE),
    ([*_HEX, "--n-in", "0"], USAGE),
    ([*_HEX, "--n-in", "513"], 2),
    ([*_HEX, "--n-out", "-8"], USAGE),
    ([*_HEX, "--n-out", "0"], USAGE),
    ([*_HEX, "--n-out", "513"], 2),
    ([*_HEX, "--n-in", "64", "--n-out", "65"], 2),
    ([*_HEX, "--n-in", "64", "--n-out", "32"], 0),
    (["analyze", "--what", "radius", "--profile", "micro"], 0),
    # unknown profile names and degenerate counts
    (["run", "--profile", "nope"], 2),
    (["profiles", "--name", "nope"], 2),
    (["run", "--mode", "protocol1", "--rounds", "0"], USAGE),
    (["run", "--mode", "protocol1", "--rounds", "-3"], USAGE),
    (["run", "--mode", "single-round", "--trials", "0"], USAGE),
    (["serve", "--transport", "stdio", "--rounds", "0"], USAGE),
    # an option the run's mode ignores
    (["run", "--mode", "single-round", "--rounds", "5"], 2),
    (["run", "--mode", "single-round", "--transcript", "{tmp}/t.jsonl"], 2),
    (["run", "--mode", "protocol1", "--trials", "5"], 2),
    (["run", "--mode", "protocol2", "--prover", "device-constant", "--trials", "5"], 2),
    # more out-of-range ports, seeds and rates
    (["serve", "--port", "70000"], USAGE),
    (["serve", "--port", "-1"], USAGE),
    (["connect", "--port", "65536"], USAGE),
    (["run", "--seed", "0x1ffffffffffffffff"], USAGE),
    (["keygen", "--seed", "-1", "--public-out", "{tmp}/k.json"], USAGE),
    (["keygen", "--seed", str(1 << 64), "--public-out", "{tmp}/k.json"], USAGE),
    (["analyze", "--what", "rate", "--seed", "-1"], USAGE),
    (["analyze", "--what", "rate", "--seed", "0x1ffffffffffffffff"], USAGE),
    ([*_HEX, "--rate", "inf"], USAGE),
    ([*_HEX, "--rate", "1e308"], USAGE),
    (["run", "--mode", "single-round", "--trials", "1", "--seed", hex((1 << 64) - 1)], 0),
]


# main()'s refusal prefix for each exit code
_REFUSAL = {2: "configuration error: ", 3: "i/o error: "}


@pytest.mark.parametrize("argv, code", CLI_MATRIX, ids=[" ".join(a) for a, _ in CLI_MATRIX])
def test_cli_exit_code_matrix(tmp_path, capsys, argv, code):
    # in-process: every case returns its exit code, no exception escapes,
    # and a refusal writes nothing to stdout and names its kind on stderr
    from clawrand import cli

    (tmp_path / "in.hex").write_text("a5" * 64 + "\n")
    (tmp_path / "bad.hex").write_text("zz not hex\n")
    assert cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == (2 if code == USAGE else code)
    if code:
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        *notes, last = err.splitlines()
        if code == USAGE:
            assert notes[0].startswith("usage: clawrand "), err
            assert re.match(r"clawrand \w+: error: argument ", last), err
        else:
            # one prefixed line, after any "# profile ..." notes
            assert last.startswith(_REFUSAL[code]), err
            assert all(n.startswith("# ") for n in notes), err


def test_cli_serve_stdio_pipe(tmp_path):
    # the prover client speaks over the server's stdin/stdout pipes
    t_remote = tmp_path / "stdio.jsonl"
    srv = subprocess.Popen(
        [sys.executable, "-m", "clawrand.cli", "serve", "--profile", "micro",
         "--mode", "protocol1", "--seed", "51", "--rounds", "30",
         "--transport", "stdio", "--transcript", str(t_remote)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chan = wire.LineChannel(srv.stdout, srv.stdin)
    final = wire.connect_session(chan, "classical-committed", 51)
    srv.wait(60)
    assert final["type"] == "final"
    local = run_protocol1(
        get_profile("micro"),
        CommittedPreimageProver(substream(51, "prover", "classical-committed")),
        substream(51, "verifier", "protocol1"),
        n_rounds=30,
    )
    assert t_remote.read_text() == local.to_jsonl()


def test_cli_serve_stdio_rejects_garbage_with_protocol_exit():
    r = subprocess.run(
        [sys.executable, "-m", "clawrand.cli", "serve", "--profile", "micro",
         "--transport", "stdio", "--rounds", "5"],
        input="this is not a protocol message\n",
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 4


_DEEP = "[" * 100_000 + "]" * 100_000  # past the parser's recursion limit
_LONG_INT = '{"type":"hello","n":' + "9" * 5000 + "}"  # past the int-string digit limit


_MICRO_HELLO = (
    '{"type":"hello","role":"verifier","fmt":2,"profile":{"name":"micro"},'
    '"mode":"protocol1","rounds":1}'
)


def _micro_key_frame(first_entry: str = "0"):
    """A micro key frame whose first A entry is the raw JSON text given."""
    pub = gen(get_profile("micro"), substream(5, "stdio-key")).public
    frame = {"type": "key", "epoch": 0, **public_key_to_json(pub)}
    frame["A"]["data"][0] = "@@"
    return canonical_json(frame).replace('"@@"', first_entry)


_FINAL = '{"type":"final","accepted":false,"test_passes":0,"test_rounds":0}'


@pytest.mark.parametrize("role,lines", [
    ("connect", ["[1, 2]"]),
    ("connect", ['{"type":"hello","role":"verifier","fmt":2,"profile":{"name":"nope"},'
                 '"mode":"protocol1","rounds":1}']),
    ("connect", ['{"type":"hello","role":"verifier","fmt":2}']),
    # a format-1 verifier's resample decision would be counted as a closed round
    ("connect", [_MICRO_HELLO.replace('"fmt":2', '"fmt":1'), _micro_key_frame(),
                 '{"type":"decision","resample":true,"refresh":false}', _FINAL]),
    ("connect", [_MICRO_HELLO, '{"type":"key","epoch":0}']),
    ("connect", [_MICRO_HELLO, '{"type":"challenge"}']),
    ("connect", [_MICRO_HELLO, '{"type":"challenge","c":1}']),
    ("connect", [_MICRO_HELLO, '{"type":"decision","round":0,"refresh":false}']),
    ("serve", ["[1, 2]"]),
    ("serve", ['{"type":"hello","role":"prover","prover":"x"}', '"sample"']),
    ("serve", ["x" * (2 << 20)]),  # longer than the 1 MiB frame cap
    ("connect", [_DEEP]),
    ("serve", [_LONG_INT]),
    # values that are not exactly integers in range, never truncated
    ("connect", [_MICRO_HELLO, _micro_key_frame("1180591620717411303424"), _FINAL]),
    ("connect", [_MICRO_HELLO, _micro_key_frame("1.5"), _FINAL]),
    ("connect", [_MICRO_HELLO, _micro_key_frame(), '{"type":"challenge","c":1e400}']),
    ("connect", [_MICRO_HELLO.replace('"rounds":1', '"rounds":1e400')]),
    # a challenge answers the client's last sample and no other state: one
    # before any sample, a second one, and one after a refresh decision
    ("connect-qsim", [_MICRO_HELLO.replace('"rounds":1', '"rounds":0'), _micro_key_frame(),
                      '{"type":"challenge","c":0,"t":null}']),
    ("connect-qsim", [_MICRO_HELLO, _micro_key_frame(), '{"type":"challenge","c":1,"t":null}',
                      '{"type":"challenge","c":1,"t":null}', _FINAL]),
    ("connect-qsim", [_MICRO_HELLO.replace('"rounds":1', '"rounds":2'), _micro_key_frame(),
                      '{"type":"challenge","c":0,"t":null}',
                      '{"type":"decision","round":0,"refresh":true}',
                      '{"type":"challenge","c":0,"t":null}', _FINAL]),
])
def test_cli_stdio_malformed_frames_exit_protocol(role, lines):
    # a peer's frame that is not an object, lacks the fields its type
    # needs, or comes out of turn, ends the session as a protocol
    # violation, never a traceback
    argv = {
        "connect": ["connect", "--prover", "classical-committed"],
        "connect-qsim": ["connect", "--prover", "qsim-micro"],
        "serve": ["serve", "--profile", "micro", "--rounds", "5"],
    }[role]
    r = subprocess.run(
        [sys.executable, "-m", "clawrand.cli", *argv, "--transport", "stdio"],
        input="".join(line + "\n" for line in lines),
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 4, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("line", [
    b"[1, 2]\n", b'"hello"\n', b"null\n", b"\xff\n",
    pytest.param(_DEEP.encode() + b"\n", id="deep"),
    pytest.param(_LONG_INT.encode() + b"\n", id="long-int"),
])
def test_recv_rejects_lines_that_are_not_objects(line):
    import io

    chan = wire.LineChannel(io.BytesIO(line), io.BytesIO())
    with pytest.raises(wire.WireError):
        chan.recv("hello")


def test_recv_caps_line_length():
    import io

    ok = b'{"type":"hello","pad":"' + b"x" * (wire.MAX_LINE_BYTES - 26) + b'"}\n'
    assert len(ok) == wire.MAX_LINE_BYTES
    assert wire.LineChannel(io.BytesIO(ok), io.BytesIO()).recv("hello")["type"] == "hello"
    reader = io.BytesIO(b"x" * (4 * wire.MAX_LINE_BYTES) + b"\n")
    with pytest.raises(wire.WireError, match="longer than"):
        wire.LineChannel(reader, io.BytesIO()).recv("hello")
    assert reader.tell() == wire.MAX_LINE_BYTES + 1  # read no further than the cap


def test_cli_profiles_lists_full_scale():
    r = run_cli("profiles", "--name", "full-scale")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    assert rows[0]["q"] > 2**111
    assert rows[0]["violated_conditions"] == []


def test_cli_analyze_smoke():
    r = run_cli("analyze", "--what", "lambda", "--profile", "micro", "--seed", "2")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert "lambda" in obj


def test_cli_serve_connect_tcp(tmp_path):
    import socket as socketlib

    # grab a free port for the subprocess pair
    with socketlib.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    t_remote = tmp_path / "remote.jsonl"
    srv = subprocess.Popen(
        [sys.executable, "-m", "clawrand.cli", "serve", "--profile", "micro",
         "--mode", "protocol1", "--seed", "41", "--rounds", "40",
         "--port", str(port), "--transcript", str(t_remote)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        import time

        final = None
        for _ in range(50):
            time.sleep(0.2)
            try:
                final = wire.connect_tcp("127.0.0.1", port, "classical-committed", 41)
                break
            except OSError:
                continue
        assert final is not None
        srv.wait(30)
    finally:
        srv.kill()
    local = run_protocol1(
        get_profile("micro"),
        CommittedPreimageProver(substream(41, "prover", "classical-committed")),
        substream(41, "verifier", "protocol1"),
        n_rounds=40,
    )
    assert t_remote.read_text() == local.to_jsonl()
