"""The JSON writers hand the encoder builtin ints only, and their text is
the text of the per-element conversion they replaced.  The table-rendered
texts (mat_json_text, public_key_json_text and a transcript's record
lines) are the canonical_json text of the dict writers, byte for byte, and
a record keeps its own copy of the prover's arrays."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from clawrand import cli, wire
from clawrand.clawfree import gen, keypair_to_json, public_key_json_text, public_key_to_json
from clawrand.modq import ModRing, canonical_json, mat_json_text, mat_to_json, residues_text, vec_to_json
from clawrand.profiles import get_profile
from clawrand.protocol import (
    RoundRecord,
    _key_digest,
    prover_catalog,
    run_protocol1,
    run_protocol2,
    simplified_provers,
)
from clawrand.rngstream import substream
from clawrand.trapdoor import trapdoor_to_json


def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _ref_ints(v) -> list:
    return [int(t) for t in np.asarray(v).reshape(-1)]


def _ref_mat(ring, m) -> dict:
    m = np.atleast_2d(m)
    return {"q": ring.q, "rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": _ref_ints(m)}


def _ref_public(pub) -> dict:
    return {
        "A": _ref_mat(pub.ring, pub.A),
        "u": _ref_mat(pub.ring, np.atleast_1d(pub.u)[:, None]),
        "profile": pub.profile.as_dict(),
    }


def _ref_trapdoor(t) -> dict:
    return {
        "A": _ref_mat(t.ring, t.A),
        "R": {"rows": int(t.R.shape[0]), "cols": int(t.R.shape[1]), "data": _ref_ints(t.R)},
        "layout": {"mbar": t.mbar},
    }


def _ref_keypair(key) -> dict:
    return {
        "public": _ref_public(key.public),
        "trapdoor": None if key.gadget is None else _ref_trapdoor(key.gadget),
        "s": _ref_ints(key.s_bits),
        "e": _ref_ints(key.e),
    }


def _ref_record(rec, ys, answers) -> dict:
    d = rec.as_dict()
    d["y"] = _ref_ints(ys[rec.index])
    ans = dict(d["answer"])
    if "x" in ans or "d" in ans:
        field = "x" if "x" in ans else "d"
        ans[field] = _ref_ints(answers[rec.index])
    d["answer"] = ans
    return d


def _assert_builtin(obj, path="$"):
    """Every leaf is a builtin JSON type; every number is an int or float,
    never a numpy scalar."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert type(k) is str, path
            _assert_builtin(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _assert_builtin(v, f"{path}[{i}]")
    else:
        assert obj is None or type(obj) in (str, bool, int, float), (path, type(obj))


def _assert_int_list(v):
    assert type(v) is list and all(type(t) is int for t in v)


class _Recording:
    """Wraps a prover and keeps the numpy arrays it hands the verifier."""

    def __init__(self, inner):
        self.inner = inner
        self.wants_trapdoor = getattr(inner, "wants_trapdoor", False)
        self.samples = []
        self.answers = []

    def new_key(self, key):
        self.inner.new_key(key)

    def next_sample(self):
        y = self.inner.next_sample()
        self.samples.append(np.asarray(y))
        return y

    def answer(self, c):
        ans = self.inner.answer(c)
        self.answers.append(np.asarray(ans[2]))
        return ans


@pytest.mark.parametrize("name", ["micro", "desk-protocol"])
def test_key_writers_emit_builtin_ints_and_unchanged_text(name):
    prof = get_profile(name)
    key = gen(prof, substream(6, "json-writers", name))
    ring = key.ring
    cases = [
        (mat_to_json(ring, key.public.A), _ref_mat(ring, key.public.A)),
        (vec_to_json(ring, key.public.u), _ref_mat(ring, key.public.u[:, None])),
        (public_key_to_json(key.public), _ref_public(key.public)),
        (keypair_to_json(key), _ref_keypair(key)),
    ]
    if key.gadget is not None:
        cases.append((trapdoor_to_json(key.gadget), _ref_trapdoor(key.gadget)))
    else:
        assert name == "micro"
    for out, ref in cases:
        _assert_builtin(out)
        assert canonical_json(out) == _reference_json(ref)
    assert public_key_json_text(key.public) == canonical_json(public_key_to_json(key.public))
    out = keypair_to_json(key)
    for v in (out["s"], out["e"], out["public"]["A"]["data"], out["public"]["u"]["data"]):
        _assert_int_list(v)
    if key.gadget is not None:
        _assert_int_list(out["trapdoor"]["R"]["data"])
        assert min(out["trapdoor"]["R"]["data"]) < 0  # signed entries survive


# residues of 1 to 4 digits, at prime, composite and power-of-two moduli
@pytest.mark.parametrize("q", [2, 10, 11, 61, 100, 101, 1000, 4093, 4096])
def test_mat_json_text_is_the_canonical_text(q):
    ring = ModRing(q)
    rng = np.random.default_rng(q)
    for shape in [(7, 5), (9, 1), (0, 4), (1, 1)]:
        m = ring.uniform(rng, shape)
        if m.size >= 2:
            m.flat[0], m.flat[-1] = 0, q - 1
        assert mat_json_text(ring, m) == canonical_json(mat_to_json(ring, m))
    every = np.arange(q, dtype=np.int64)
    assert mat_json_text(ring, every) == canonical_json(mat_to_json(ring, every))
    assert mat_json_text(ring, every[:, None]) == canonical_json(vec_to_json(ring, every))


@pytest.mark.parametrize("bad", [-1, 13, 1 << 40, -(1 << 40)])
def test_mat_json_text_refuses_entries_outside_the_ring(bad):
    m = np.array([[0, 5], [12, bad]], dtype=np.int64)
    with pytest.raises(ValueError, match="outside"):
        mat_json_text(ModRing(13), m)


@pytest.mark.parametrize("bad", [-1, 13, 1 << 40, -(1 << 40)])
def test_residue_texts_refuse_entries_outside_the_ring(bad):
    # -1 would otherwise index the table's last entry and render as "12"
    ring = ModRing(13)
    v = np.array([0, 5, 12, bad], dtype=np.int64)
    with pytest.raises(ValueError, match="outside"):
        residues_text(ring, v)
    for rec in (
        RoundRecord(0, "gen", 1, None, 0, v, {"b": 0, "x": np.zeros(2, dtype=np.int64)}, 1, 0),
        RoundRecord(0, "test", 1, None, 0, np.zeros(4, dtype=np.int64), {"b": 0, "x": v}, 1, 1),
        RoundRecord(0, "test", 0, None, 0, np.zeros(4, dtype=np.int64), {"u": 0, "d": v}, 1, 1),
    ):
        with pytest.raises(ValueError, match="outside"):
            rec.json_line(ring)


@pytest.mark.parametrize("name", ["micro", "desk-protocol"])
def test_key_digest_hashes_the_keygen_public_file(name, tmp_path, capsys):
    path = tmp_path / "pub.json"
    assert cli.main(["keygen", "--profile", name, "--seed", "11", "--public-out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    key = gen(get_profile(name), substream(11, "keygen"))
    assert _key_digest(key) == hashlib.sha256(text[:-1].encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", ["micro", "desk-small", "desk-protocol", "full-scale"])
def test_profile_text_never_leaks(name):
    # the cached text must stay out of as_dict, and so out of the profiles
    # listing, transcripts and key files
    prof = get_profile(name)
    text = prof.json_text
    assert "json_text" in vars(prof)  # cached on the instance from here on
    d = prof.as_dict()
    assert set(d) == {f.name for f in dataclasses.fields(prof)} | {"w", "violated_conditions"}
    assert text == canonical_json(d) == _reference_json(d)
    assert "json_text" not in text
    # an overridden profile is a new object with its own text
    tweaked = get_profile(name, p_test=0.5)
    assert tweaked.json_text == canonical_json(tweaked.as_dict()) != text
    assert tweaked.as_dict()["p_test"] == 0.5
    assert prof.json_text is text


@pytest.mark.parametrize("name,prover_kind", [
    ("micro", "ideal"),
    ("desk-protocol", "ideal"),
    ("desk-protocol", "classical-committed"),
])
def test_round_records_emit_builtin_ints_and_unchanged_text(name, prover_kind):
    prof = get_profile(name, p_test=0.5)
    seed = 8
    prover = _Recording(prover_catalog()[prover_kind](substream(seed, "prover", prover_kind)))
    tr = run_protocol1(prof, prover, substream(seed, "verifier", "protocol1"), n_rounds=40)
    # every catalog prover here sends a valid image on its first try and
    # answers once per round, so the recorded arrays line up with rounds
    assert len(prover.samples) == len(prover.answers) == len(tr.records)
    seen = set()
    for rec in tr.records:
        out = rec.as_dict()
        _assert_builtin(out)
        _assert_int_list(out["y"])
        for field in ("x", "d"):
            if field in out["answer"]:
                _assert_int_list(out["answer"][field])
                seen.add(field)
        ref = _ref_record(rec, prover.samples, prover.answers)
        assert canonical_json(out) == _reference_json(ref)
    assert seen == {"x", "d"}


def test_wire_frames_take_lists_and_arrays():
    for v in ([3, 0, 1], np.array([3, 0, 1], dtype=np.int64), (3, 0, 1)):
        out = wire._plain(v)
        _assert_int_list(out)
        assert out == [3, 0, 1]
    # scalars become builtins too, and a fraction is sent as it is
    for v, want in ((np.int64(1), 1), (1, 1), (None, None), (0.5, 0.5), (np.array([0.5, 2.0]), [0.5, 2.0])):
        out = wire._plain(v)
        assert out == want and type(out) is type(want)


def _assert_record_lines_canonical(tr, ring) -> set:
    """Every record line of tr, alone and in to_jsonl, is the canonical
    text of its dict.  Returns the (type, answer keys) shapes seen."""
    lines = tr.to_jsonl().splitlines()[1:-1]
    assert len(lines) == len(tr.records)
    shapes = set()
    for rec, line in zip(tr.records, lines):
        assert rec.json_line(ring) == line == canonical_json(rec.as_dict())
        shapes.add((rec.round_type, tuple(sorted(rec.answer))))
    return shapes


def test_record_lines_of_valid_rounds_are_the_canonical_text():
    prof = get_profile("desk-protocol", p_test=0.5)
    prover = prover_catalog()["ideal"](substream(9, "prover", "ideal"))
    tr = run_protocol1(prof, prover, substream(9, "verifier", "protocol1"), n_rounds=60)
    assert all(isinstance(r.y, np.ndarray) for r in tr.records)
    shapes = _assert_record_lines_canonical(tr, ModRing(prof.q))
    assert shapes == {("gen", ("b", "x")), ("test", ("b", "x")), ("test", ("d", "u"))}


class _Malformed:
    """A protocol-1 prover that sends a sample of the wrong shape in even
    rounds and raises, with a message JSON must escape, in odd ones."""

    message = 'a "quoted" \\ back\\slash, ünïcödé and \u2603\n'

    def __init__(self, prof):
        self.prof = prof
        self.rounds = 0

    def new_key(self, pub):
        pass

    def next_sample(self):
        self.rounds += 1
        return np.zeros(self.prof.m + self.rounds % 2, dtype=np.int64)

    def answer(self, c, t=None):
        raise ValueError(self.message)


def test_record_lines_of_malformed_rounds_are_the_canonical_text():
    prof = get_profile("micro", p_test=0.5)
    tr = run_protocol1(prof, _Malformed(prof), substream(10, "verifier", "protocol1"), n_rounds=20)
    assert any(r.y is None for r in tr.records)
    assert any(r.y is not None and _Malformed.message in r.answer["malformed"] for r in tr.records)
    shapes = _assert_record_lines_canonical(tr, ModRing(prof.q))
    assert {answer for _, answer in shapes} == {("malformed",)}


def test_protocol2_record_lines_are_the_canonical_text():
    prof = get_profile("micro", N=200, p_test=0.5)
    prover = simplified_provers()["device-honest"](substream(11, "prover"))
    tr = run_protocol2(prof, prover, substream(11, "verifier"))
    shapes = _assert_record_lines_canonical(tr, None)
    assert {answer for _, answer in shapes} == {("e", "k"), ("v",)}
    ks = {r.answer["k"] for r in tr.records if "k" in r.answer}
    assert None in ks and ks - {None}


def test_hand_built_record_lines_at_an_eight_byte_table_width():
    # q > 1000 takes the table's 8-byte entries; every residue appears
    ring = ModRing(4093)
    every = np.arange(ring.q, dtype=np.int64)
    for t, answer in ((None, {"b": 1, "x": every[::-1].copy()}), (3, {"u": 0, "d": every % 2})):
        rec = RoundRecord(7, "test", 1 if "x" in answer else 0, t, 2, every, answer, 1, 1)
        assert rec.json_line(ring) == canonical_json(rec.as_dict())
        assert rec.as_dict()["y"] == list(range(ring.q))


class _Scribbling:
    """Hands the verifier arrays of its own and overwrites the previous
    round's sample and answer in place on its next call, keeping what they
    held when they were handed over."""

    def __init__(self, inner, scribble: bool):
        self.inner = inner
        self.wants_trapdoor = inner.wants_trapdoor
        self.scribble = scribble
        self.handed = []
        self.snapshots = []

    def _hand(self, v):
        arr = np.array(v, dtype=np.int64)
        self.handed.append(arr)
        self.snapshots.append(arr.tolist())
        return arr

    def _overwrite(self):
        if self.scribble:
            for arr in self.handed:
                arr[:] = 1 - (arr % 2)  # in domain for y, x and d alike
        self.handed = []

    def new_key(self, key):
        self._overwrite()
        self.inner.new_key(key)

    def next_sample(self):
        self._overwrite()
        return self._hand(self.inner.next_sample())

    def answer(self, c, t=None):
        kind, a, b = self.inner.answer(c)
        return kind, a, self._hand(b)


def test_records_hold_a_snapshot_of_the_provers_arrays():
    prof = get_profile("desk-protocol", p_test=0.5)

    def run(scribble):
        prover = _Scribbling(prover_catalog()["ideal"](substream(12, "prover", "ideal")), scribble)
        return prover, run_protocol1(prof, prover, substream(12, "verifier", "protocol1"), n_rounds=40)

    prover, tr = run(True)
    _, plain = run(False)
    assert tr.to_jsonl() == plain.to_jsonl()
    # the snapshots alternate sample, answer vector, one pair a round
    assert len(prover.snapshots) == 2 * len(tr.records)
    for rec, y, vec in zip(tr.records, prover.snapshots[::2], prover.snapshots[1::2]):
        want = rec.as_dict()
        want["y"] = y
        want["answer"]["x" if "x" in rec.answer else "d"] = vec
        assert rec.json_line(ModRing(prof.q)) == canonical_json(want)
