"""The JSON writers hand the encoder builtin ints only, and their text is
the text of the per-element conversion they replaced."""

import json

import numpy as np
import pytest

from clawrand import wire
from clawrand.clawfree import gen, keypair_to_json, public_key_to_json
from clawrand.modq import canonical_json, mat_to_json, vec_to_json
from clawrand.profiles import get_profile
from clawrand.protocol import prover_catalog, run_protocol1
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
    out = keypair_to_json(key)
    for v in (out["s"], out["e"], out["public"]["A"]["data"], out["public"]["u"]["data"]):
        _assert_int_list(v)
    if key.gadget is not None:
        _assert_int_list(out["trapdoor"]["R"]["data"])
        assert min(out["trapdoor"]["R"]["data"]) < 0  # signed entries survive


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
