"""Pinned SHA-256 digests of verifier output on fixed seeds.

Each case runs protocol 1, protocol 2 or the single-round test and hashes
what the verifier produced: the transcript (to_jsonl) together with its
summary, or the single-round report.  The digests were taken before the
verifier's grading was folded into one function.  A change that only
restructures the verifier must leave every digest as it is; a change that
alters one is a change of behaviour and must say so.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from clawrand.devices import honest_qubit_device
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


PROTOCOL1 = {
    ("micro", "ideal", 200):
        "272a965a132fbf27e399e5d23186d05c2f5b29e42a95b01f6df6314e9bb6eb79",
    ("micro", "classical-committed", 200):
        "b5a446e948d45b504adbb6aa8497364d8fb4756717ce8c53bce16db6eea7518d",
    ("micro", "classical-replay", 200):
        "184dba1f2c50db6380c949626ba728e0f21a245267a0b8effd3fc2bec4382d88",
    ("micro", "qsim-micro", 200):
        "5a263a36533304325316de5535e26ca0aefb94c065cc306bf974293b3a4af6b1",
    ("micro", "flaky", 200):
        "e6e9f89f50772517c57283db88a5738044d23197ffc04d9a6da116089f845432",
    ("desk-small", "ideal", 150):
        "58aedb4063ec935cbe8bf0e3665b3d518f7788bf5e8413653c49ee94a7e49565",
    ("desk-small", "classical-committed", 150):
        "ac0c9f118d3e7e219f69c0e208a1dcf9b71159d25491d35512e9f539dc08d246",
    ("desk-small", "classical-replay", 150):
        "081ada16ab734fd5613582d0c7ba45237eee316d690cd84317036a1af5cd7b66",
    ("desk-protocol", "ideal", 100):
        "9e82f156ea985ff820611e8e3fe8028b23dfbf5cc8cafb4736f78466d246a95a",
    ("desk-protocol", "classical-committed", 100):
        "2eb8b59103c66ca37b86a488695db77505235c394f8a4245173b482a661bea85",
    ("desk-protocol", "classical-replay", 100):
        "4e5cbdcf84ea0e58621e73f794c4a200e87b3aa78cb0c2a7245c5df1a9cc94ef",
    ("desk-protocol", "classical-random", 16):
        "9e74ff58d56432a42400e4f830c9b3c873ece787469c6b8da0b4a6fd1be7bdad",
}

PROTOCOL2 = {
    "device-honest": "69309dca90a0caa0cafec11784552dba56b4109571de375a1dd11b33113c5036",
    "device-constant": "3e5b8f65ef5392c5e7a2df969c38233272743f2af0191fc4d79503c06c63c476",
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
    return prover_catalog()[kind](rng)


def protocol1_digest(profile: str, kind: str, rounds: int) -> str:
    prof = get_profile(profile, p_test=P_TEST)
    tr = run_protocol1(prof, _make_prover(kind), substream(SEED, "verifier", "protocol1"), rounds)
    return _transcript_digest(tr)


def protocol2_digest(kind: str) -> str:
    prof = get_profile("micro", N=200, p_test=0.3)
    if kind == "device-honest":
        prover = BornDeviceProver(honest_qubit_device(), substream(SEED, "prover", kind))
    else:
        prover = ConstantSimplifiedProver()
    tr = run_protocol2(prof, prover, substream(SEED, "verifier", "protocol2"))
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
