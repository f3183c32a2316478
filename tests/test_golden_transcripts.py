"""Pinned SHA-256 digests of verifier output on fixed seeds.

Each case runs protocol 1, protocol 2 or the single-round test and hashes
what the verifier produced: the transcript (to_jsonl) together with its
summary, or the single-round report.  The transcript digests are of
transcript format 2.  A change that only restructures the verifier must
leave every digest as it is; a change that alters one is a change of
behaviour and must say so.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from clawrand.devices import honest_qubit_device
from clawrand.gaussians import TruncGaussian
from clawrand.profiles import get_profile
from clawrand.protocol import (
    BornDeviceProver,
    CommittedPreimageProver,
    ConstantSimplifiedProver,
    prover_catalog,
    run_protocol1,
    run_protocol2,
    single_round_test,
)
from clawrand.rngstream import substream

SEED = 20260

# test rounds every fourth round on average, so short runs still grade
# both challenges and refresh keys
P_TEST = 0.25


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _transcript_digest(tr) -> str:
    return _sha(tr.to_jsonl() + json.dumps(tr.summary(), sort_keys=True))


class FlakyProver(CommittedPreimageProver):
    """Every third sample has the wrong shape and every fourth answer the
    wrong arity; the rest are the committed prover's.  Drives the
    malformed-sample and malformed-answer paths of protocol 1."""

    def __init__(self, rng):
        super().__init__(rng)
        self.samples = 0
        self.answers = 0

    def next_sample(self):
        self.samples += 1
        y = super().next_sample()
        return y[:-1] if self.samples % 3 == 0 else y

    def answer(self, c, t=None):
        self.answers += 1
        return ("pre",) if self.answers % 4 == 0 else super().answer(c, t)


class WideNoiseProver(CommittedPreimageProver):
    """The committed prover with its images' noise drawn at a width above
    the profile's B_P, so that generation rounds reach the primary decode,
    fallback repairs and decode failures.  It still answers every preimage
    challenge with the x it committed to."""

    def __init__(self, rng, width):
        super().__init__(rng)
        self.width = width

    def next_sample(self):
        pub = self.pub
        ring = pub.ring
        self._x = ring.uniform(self.rng, pub.profile.n)
        e = TruncGaussian(ring, self.width).sample_vec(self.rng, pub.profile.m)
        return ring.reduce(ring.matmul(pub.A, self._x) + e)


class FlakyReporter:
    """Protocol-2 prover whose reports cycle through five kinds: it
    raises, returns a non-tuple on challenge 0, returns a fraction,
    returns label 3 on challenge 1, and otherwise gives the constant
    prover's valid report.  Drives protocol 2's malformed paths."""

    def __init__(self, rng=None):
        self.calls = 0

    def round2(self, c, t):
        self.calls += 1
        kind = self.calls % 5
        if kind == 1:
            raise RuntimeError("device lost")
        if kind == 2 and c == 0:
            return 1
        if kind == 3:
            return (0.5, 0) if c == 0 else 0.5
        if kind == 4 and c == 1:
            return 3
        return ConstantSimplifiedProver().round2(c, t)


PROTOCOL1 = {
    ("micro", "ideal", 200):
        "da14e04d353c146eb076d9195294f4dd12d43d52e6744ba767048c2b2d6719fc",
    ("micro", "classical-committed", 200):
        "a6d9a6ebad9cfd455055bef57bad97f3eb6b3b985c0f84a9998a7737862c4541",
    ("micro", "classical-replay", 200):
        "a5e2cc5289b40f70cfa2764b6df7ba84b27cced736cdff0b812f35c2382af3c3",
    ("micro", "qsim-micro", 200):
        "3a9ececde94c9eb8c2b4b3a99bd0eaf43f092fb96f79610f41cc562b94e19fce",
    ("micro", "flaky", 200):
        "9b3382d4ae5a4423a4e2c7143348fddf993cd7c8c0c6c6f6066b6e65b141081c",
    ("micro3", "qsim-micro", 200):
        "a1440c7b41a1d0e9ed62c0bb2aee74bda8c33d3cefbf03fb671fae41a1025a89",
    ("micro-noisy", "qsim-micro", 200):
        "75bdede9e9e0975255700595d3916c5007cded2381274d1c7451740f806c0bc4",
    # uniform images at micro-noisy: tied exhaustive decodes are refused
    ("micro-noisy", "classical-random", 200):
        "e453a75372f0a42ec5221f6a62d50828f4cba8e84bd44acfb6e2616e0fe7baba",
    ("desk-small", "ideal", 150):
        "6345e931e9cade76d71bf379e359f040c72befb2df3ea3fa70bce8b4c465ea4a",
    ("desk-small", "classical-committed", 150):
        "03448684f9763858953c360238cbebfcd4abd6fee26ea14c520c42052655b8ee",
    ("desk-small", "classical-replay", 150):
        "4eea105e475bf4b1f65acbd27a753ec8f7c1993b9f41a830e91241323590135a",
    ("desk-protocol", "ideal", 100):
        "d1ebfe0130d2fbdf5716fefd91872fd991aa2127868f3b7a45336b9f32e86178",
    ("desk-protocol", "classical-committed", 100):
        "c769c764e88dfd5a7fecc24ce0d4abd38755406539f05cfa6850105441306edb",
    ("desk-protocol", "classical-replay", 100):
        "2964c8fb733ea16a0dd37e2ffbf48b873dc2ddf82359da8627a79656de47445e",
    ("desk-protocol", "classical-random", 16):
        "0bede5cf1c1320cabd1740189641a405ff34de29e20f98de4ca76c29b6cfac74",
}

# at each profile's own p_test (0.05): a key epoch holds ~20 generation
# rounds, so the verifier grades them in whole batches
PROTOCOL1_OWN_P_TEST = {
    ("desk-protocol", "ideal", 400):
        "935a9a423262dd3e4595d6bf56513760cc2b32b3b934e7a1a788f8cd93292ac9",
    # noise widths above B_P: of the generation rounds' images, 208 decode
    # at the primary decode, 69 by a fallback repair and 10 not at all
    ("desk-small", "wide-2.0", 300):
        "38060ebab3e3e652b17e0e1bf310e164e9ce1fd10ae3235ac772e4116a68eed3",
    # 98 primary decodes, 25 fallback repairs and 68 failures
    ("desk-protocol", "wide-1.0", 200):
        "8580c625e21de9328afb74ccb83c0f03568052978a2d4c2840ffd71e1465571b",
}

PROTOCOL2 = {
    "device-honest": "637f8e81f7589bdcda0e278a1cd6a77e94b6284a742cbb645c62cf933b162983",
    "device-constant": "46f8213ce9a51e9344c1c8933b26bc528f53b45d15932f485506fe5c42ba2de2",
    "flaky-reporter": "9f0cca4c06977b5a548d24693fcee0fd8a47b5686183b34f093691868f348ffa",
}

SINGLE_ROUND = {
    ("micro", "ideal", 200):
        "8a49204e9870190f9c3296a9478d385f6a6db64551bdf5c6dda7ee90e9be1fb7",
    ("micro", "qsim-micro", 200):
        "8a49204e9870190f9c3296a9478d385f6a6db64551bdf5c6dda7ee90e9be1fb7",
    ("micro", "classical-committed", 200):
        "8a49204e9870190f9c3296a9478d385f6a6db64551bdf5c6dda7ee90e9be1fb7",
    ("micro", "classical-random", 200):
        "e00e16f7a37eb42e674698d23048e1db35118fd35c250e8580dfb66d5377ba2b",
    ("micro", "classical-replay", 200):
        "8a49204e9870190f9c3296a9478d385f6a6db64551bdf5c6dda7ee90e9be1fb7",
    ("desk-small", "ideal", 100):
        "a19b35493d2a9c4b8e4af91b0495aee3daa6cbaa93529fd80a710105cf81412f",
    ("desk-small", "classical-committed", 100):
        "f7954006fe3c1c88716814acc6bea6af4e0926843b65a2373fde40456ee881b1",
    ("desk-small", "classical-replay", 100):
        "bc8a5cf3653916d86d973716f2143b096e564d0b67399cf8fd562a70f1cdb11c",
    ("desk-protocol", "ideal", 60):
        "0882eac96161515c6ded6dcdac8d637407cf608c0b82651b51f286098097fca1",
    ("desk-protocol", "classical-committed", 60):
        "0a2dca2d5341a0829da92d4dd4a1f03beda6a808b23a731e989bf0546aefd30a",
    ("desk-protocol", "classical-random", 16):
        "3d24e7d773585772392baa2b83fac59ac8d2bdeda7d2e700c7f1bed1b8ef6696",
    ("desk-protocol", "classical-replay", 60):
        "8afb59d3f7d34cbb72b905b175eb3d3bb70af8d69e97351e443b98b5bdebed7a",
}


def _make_prover(kind: str):
    rng = substream(SEED, "prover", kind)
    if kind == "flaky":
        return FlakyProver(rng)
    if kind.startswith("wide-"):
        return WideNoiseProver(rng, float(kind.removeprefix("wide-")))
    return prover_catalog()[kind](rng)


def protocol1_digest(profile: str, kind: str, rounds: int, p_test: float | None = P_TEST) -> str:
    prof = get_profile(profile) if p_test is None else get_profile(profile, p_test=p_test)
    tr = run_protocol1(prof, _make_prover(kind), substream(SEED, "verifier", "protocol1"), rounds)
    return _transcript_digest(tr)


def protocol2_digest(kind: str) -> str:
    """Digest of a protocol-2 run with every malformed record's text
    masked, so that the digest pins how each round is graded and not the
    wording of the verifier's message."""
    prof = get_profile("micro", N=200, p_test=0.3)
    if kind == "device-honest":
        prover = BornDeviceProver(honest_qubit_device(), substream(SEED, "prover", kind))
    elif kind == "flaky-reporter":
        prover = FlakyReporter()
    else:
        prover = ConstantSimplifiedProver()
    tr = run_protocol2(prof, prover, substream(SEED, "verifier", "protocol2"))
    for r in tr.records:
        if "malformed" in r.answer:
            r.answer = {"malformed": "*"}
    return _transcript_digest(tr)


def single_round_digest(profile: str, kind: str, trials: int) -> str:
    report = single_round_test(
        get_profile(profile), _make_prover(kind), trials, substream(SEED, "verifier", "single-round")
    )
    return _sha(json.dumps(asdict(report), sort_keys=True))


@pytest.mark.parametrize("case", sorted(PROTOCOL1), ids=lambda c: "-".join(map(str, c)))
def test_protocol1_transcript_digest(case):
    profile, kind, rounds = case
    assert protocol1_digest(profile, kind, rounds) == PROTOCOL1[case]


@pytest.mark.parametrize("case", sorted(PROTOCOL1_OWN_P_TEST), ids=lambda c: "-".join(map(str, c)))
def test_protocol1_transcript_digest_at_own_p_test(case):
    profile, kind, rounds = case
    assert protocol1_digest(profile, kind, rounds, p_test=None) == PROTOCOL1_OWN_P_TEST[case]


@pytest.mark.parametrize("kind", sorted(PROTOCOL2))
def test_protocol2_transcript_digest(kind):
    assert protocol2_digest(kind) == PROTOCOL2[kind]


@pytest.mark.parametrize("case", sorted(SINGLE_ROUND), ids=lambda c: "-".join(map(str, c)))
def test_single_round_report_digest(case):
    profile, kind, trials = case
    assert single_round_digest(profile, kind, trials) == SINGLE_ROUND[case]


def test_flaky_prover_reaches_both_malformed_paths():
    prof = get_profile("micro", p_test=P_TEST)
    prover = FlakyProver(substream(SEED, "prover", "flaky"))
    tr = run_protocol1(prof, prover, substream(SEED, "verifier", "protocol1"), 200)
    notes = [r.answer["malformed"] for r in tr.records if "malformed" in r.answer]
    assert any("sample shape" in n for n in notes)
    assert any("arity" in n for n in notes)
    assert np.any([r.w for r in tr.records])


def test_flaky_reporter_texts():
    # protocol 2 words a malformed report as protocol 1 does: a raise is
    # "prover raised ...", and a report outside its domain says which check refused it
    prof = get_profile("micro", N=200, p_test=0.3)
    tr = run_protocol2(prof, FlakyReporter(), substream(SEED, "verifier", "protocol2"))
    notes = {r.answer["malformed"] for r in tr.records if "malformed" in r.answer}
    assert notes == {
        "prover raised RuntimeError: device lost",
        "bad equation report arity: 1",
        "report out of domain: 0.5 is not an integer",
        "bad preimage label",
    }
