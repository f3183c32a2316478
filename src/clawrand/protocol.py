"""Verifier engines for the two interactive protocols, prover adapters,
transcripts, and acceptance decisions.

Protocol 1 (expansion): each round the prover commits one image y; the
verifier inverts it, secretly marks the round as a test (probability
p_test) or a generation round, and sends challenge 0 (equation) or 1
(preimage; always 1 on generation rounds).  An image is never
re-requested: one that does not invert scores the round 0.  Equation
answers are graded against the claw parity when d is in the good set and
by a fair coin when it is not; preimage answers are graded by the public
support check.  Keys are refreshed after every test round.  Every test
round is scored, against the threshold (1 - gamma) * p_test * N.  The
single-round test grades one round with a fresh key by the same round
rule.

When rounds are graded: an epoch's rounds together, in stacks.  Each
round's sample and answer are checked as they arrive (_take), and the
round waits in a queue graded as one stack under the epoch's key by
_grade_rounds (one decode of the stacked images, one support check of the
stacked preimage answers) when it holds _BATCH = 16 generation rounds,
when the epoch's test round has been taken, which then ends the stack,
and at the end of the run.  Records are appended in round order as each
stack is graded.  No output depends on this: only an equation test
round's coin draws from the verifier's stream, after the stack's decode
and before the next round is drawn, as it would be if the round were
graded alone; and no grade reaches the prover before the final message (a
round's decision carries only the refresh flag).  A single-round trial is
a stack of one round (_play_round).

Protocol 2 (simplified): no keys and no images; the prover reports its
own pass bit e (plus a subspace bit k when probed with T = 1) on
challenge 0 and a label v in {0,1,2} on challenge 1.  Only T = 1 test
rounds are scored, against (1 - gamma/kappa - eta) * kappa * p_test * N.

Both protocols ask their prover through one guard, _ask: a raise other
than SessionAbort (which aborts the run) is a malformed reply, and so is a
reply outside its domain; either fails its round.  A round of either
protocol ends in one RoundOutcome (the exit the rule took, the image and
answer recorded, and W), from which _record builds its record by one
rule.  Both accept by one rule, _accepts: the scored rounds pass at least
threshold times, and a run with none is rejected.  The output bits are the
passed generation rounds.

Prover adapters are duck-typed: new_key(key), next_sample() and
answer(c, t) for Protocol 1; round2(c, t) for Protocol 2.  Adapters with
wants_trapdoor = True receive the full key pair (simulation privilege);
everyone else sees the public part only.  prover_catalog() (Protocol 1 and
the single-round test) and simplified_provers() (Protocol 2) are the only
source of prover names for the CLI and the wire.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qsim
from .clawfree import (
    KeyPair,
    chk,
    claw_equation_bit,
    claw_from_image,
    gen,
    in_good_set,
    public_key_json_text,
    sample_branch,
    wilson_interval,
)
from .devices import SimplifiedDevice, honest_qubit_device
from .extract import bits_to_hex, empirical_min_entropy
from .modq import ModRing, canonical_json, exact_int, exact_int64, residues_text
from .profiles import ParameterProfile
from .trapdoor import OVER_BOUND


@dataclass
class RoundRecord:
    """One round as the verifier saw it.  The image y and an answer's
    vector ("x" of a preimage, "d" of an equation) are the int64 arrays the
    engine validated, each the record's own copy; as_dict gives them as
    lists, and json_line renders them from the residue table."""

    index: int
    round_type: str  # "test" | "gen"
    challenge: int
    t: int | None
    key_epoch: int
    y: np.ndarray | None
    answer: dict
    w: int
    o: int  # test rounds: W; generation rounds: the recorded bit, or 2 if invalid

    def as_dict(self) -> dict:
        return {
            "i": self.index,
            "type": self.round_type,
            "c": self.challenge,
            "t": self.t,
            "epoch": self.key_epoch,
            "y": None if self.y is None else self.y.tolist(),
            "answer": {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in self.answer.items()},
            "w": self.w,
            "o": self.o,
        }

    def json_line(self, ring: ModRing | None) -> str:
        """canonical_json(self.as_dict()).  A record holding an image and an
        answer vector is rendered with sorted keys around the residue texts
        of both; any other (a malformed sample or answer, every protocol-2
        round) goes through canonical_json, which escapes a message."""
        ans = self.answer
        if self.y is None or ("x" not in ans and "d" not in ans):
            return canonical_json(self.as_dict())
        if "x" in ans:
            answer = f'{{"b":{ans["b"]},"x":[{residues_text(ring, ans["x"])}]}}'
        else:
            answer = f'{{"d":[{residues_text(ring, ans["d"])}],"u":{ans["u"]}}}'
        t = "null" if self.t is None else self.t
        return (
            f'{{"answer":{answer},"c":{self.challenge},"epoch":{self.key_epoch},"i":{self.index},'
            f'"o":{self.o},"t":{t},"type":"{self.round_type}","w":{self.w},'
            f'"y":[{residues_text(ring, self.y)}]}}'
        )


@dataclass
class Transcript:
    mode: str
    profile: dict
    n_rounds: int
    records: list[RoundRecord] = field(default_factory=list)
    epochs: list[str] = field(default_factory=list)  # public-key digests
    accepted: bool = False
    threshold: float = 0.0
    test_passes: int = 0
    test_count: int = 0
    output_bits: list[int] = field(default_factory=list)
    budget: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        per_challenge = {}
        for c in (0, 1):
            tested = [r for r in self.records if r.round_type == "test" and r.challenge == c]
            per_challenge[str(c)] = {
                "rounds": len(tested),
                "pass_rate": (sum(r.w for r in tested) / len(tested)) if tested else None,
            }
        bits = np.array(self.output_bits, dtype=np.int64)
        return {
            "mode": self.mode,
            "profile": self.profile["name"],
            "rounds": self.n_rounds,
            **self._verdict(),
            "per_challenge": per_challenge,
            "output_bits": len(self.output_bits),
            "output_min_entropy_per_bit": empirical_min_entropy(bits) if bits.size else None,
        }

    def _verdict(self) -> dict:
        """The decision and its inputs, shared by summary() and the final line."""
        return {
            "accepted": self.accepted,
            "test_passes": self.test_passes,
            "test_rounds": self.test_count,
            "threshold": self.threshold,
            "budget": self.budget,
            "notes": self.notes,
        }

    def to_jsonl(self) -> str:
        head = {
            "fmt": 2,
            "mode": self.mode,
            "profile": self.profile,
            "n_rounds": self.n_rounds,
            "epochs": self.epochs,
        }
        lines = [canonical_json(head)]
        # only protocol 1 records residue vectors, and only its profiles run
        ring = ModRing(self.profile["q"]) if self.mode == "protocol1" else None
        lines += [r.json_line(ring) for r in self.records]
        final = {**self._verdict(), "output_hex": bits_to_hex(np.array(self.output_bits, dtype=np.int64))}
        lines.append(canonical_json({"final": final}))
        return "\n".join(lines) + "\n"


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class _Budget:
    """Idealized count of verifier random bits consumed, to exhibit the
    expansion ratio qualitatively."""

    def __init__(self, profile: ParameterProfile):
        self.bits = 0.0
        p = profile
        key_noise = p.noise_dist(p.B_V).entropy_bits()
        if p.uses_gadget:
            mbar = p.m - p.w
            self.key_cost = (
                mbar * p.n * math.log2(p.q) + p.w * mbar * math.log2(3) + p.n + p.m * key_noise
            )
        else:
            self.key_cost = p.m * p.n * math.log2(p.q) + p.n + p.m * key_noise

    def key(self):
        self.bits += self.key_cost

    def draw(self, entropy: float):
        self.bits += entropy

    def as_dict(self, output_bits: int) -> dict:
        return {
            "verifier_bits": round(self.bits, 2),
            "output_bits": output_bits,
            "expansion_ratio": (output_bits / self.bits) if self.bits else None,
        }


def _key_digest(key: KeyPair) -> str:
    return hashlib.sha256(public_key_json_text(key.public).encode()).hexdigest()[:16]


def _give_key(prover, key: KeyPair):
    prover.new_key(key if getattr(prover, "wants_trapdoor", False) else key.public)


def _ask(call, *args):
    """call(*args) on the prover.  SessionAbort aborts the run; any other
    exception is a malformed reply, which scores 0 and never crashes it."""
    try:
        return call(*args)
    except SessionAbort:
        raise
    except Exception as exc:
        raise MalformedAnswer(f"prover raised {type(exc).__name__}: {exc}") from exc


def _sample(key: KeyPair, prover) -> np.ndarray:
    """Ask for the round's one image and check it: integer entries, shape
    (m,) and entries in [0, q)."""
    sample = _ask(prover.next_sample)
    try:
        # copied: exact_int64 hands back an int64 array itself, and the
        # round and its record must not see the prover change it later
        y = exact_int64(sample).copy()
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedAnswer("sample entries not integers") from exc
    if y.shape != (key.profile.m,):
        raise MalformedAnswer(f"sample shape {y.shape}")
    # one unsigned compare: a negative int64 entry reads as 2^63 or more
    if (y.view(np.uint64) >= key.profile.q).any():
        raise MalformedAnswer("sample entries outside [0, q)")
    return y


class SessionAbort(Exception):
    """Unrecoverable session failure (e.g. transport loss): aborts the run
    rather than scoring rounds."""


class MalformedAnswer(Exception):
    pass


def _validated_answer(key: KeyPair, prover, c: int) -> dict:
    """The answer to challenge c as its record: {"u", "d"} for an equation,
    {"b", "x"} for a preimage."""
    ans = _ask(prover.answer, c)
    prof = key.profile
    if not isinstance(ans, tuple) or len(ans) != 3:
        raise MalformedAnswer(f"bad answer arity: {ans!r}")
    kind, a, b = ans
    if c == 0:
        if kind != "eq":
            raise MalformedAnswer(f"expected equation answer, got {kind!r}")
        u, d = _converted(a, b, "equation")
        # as in _sample, one unsigned compare checks both ends of the range
        if u not in (0, 1) or d.shape != (prof.w,) or (d.view(np.uint64) > 1).any():
            raise MalformedAnswer("equation answer out of domain")
        return {"u": u, "d": d}
    if kind != "pre":
        raise MalformedAnswer(f"expected preimage answer, got {kind!r}")
    bbit, x = _converted(a, b, "preimage")
    if bbit not in (0, 1) or x.shape != (prof.n,) or (x.view(np.uint64) >= prof.q).any():
        raise MalformedAnswer("preimage answer out of domain")
    return {"b": bbit, "x": x}


def _converted(a, b, kind: str):
    """(a as an int, b as an int64 array of its own, as the sample is); a
    value that does not convert exactly is out of the answer's domain."""
    try:
        return exact_int(a), exact_int64(b).copy()
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedAnswer(f"{kind} answer out of domain") from exc


class RoundOutcome(NamedTuple):
    """How the verifier's rule ended a round: the exit it took, the image
    and answer it records, and the grade W.  The exits are
    malformed_sample, malformed_answer, inv_fail, chk, parity and coin for
    protocol 1, and report and malformed_answer for protocol 2."""

    exit: str
    y: np.ndarray | None
    answer: dict
    w: int


def _take(key: KeyPair, prover, c: int):
    """The intake of one round of protocol 1 once the challenge c is drawn
    (c stays on the verifier until the image is in): the sample, then the
    answer to c.  Returns (y, answer), or the RoundOutcome of a malformed
    sample (malformed_sample; no answer is asked for) or of a malformed
    answer (malformed_answer), each of which scores 0."""
    try:
        y = _sample(key, prover)
    except MalformedAnswer as exc:
        return RoundOutcome("malformed_sample", None, {"malformed": str(exc)}, 0)
    try:
        return y, _validated_answer(key, prover, c)
    except MalformedAnswer as exc:
        return RoundOutcome("malformed_answer", y, {"malformed": str(exc)}, 0)


def _grade_rounds(key: KeyPair, intakes: list, rng: np.random.Generator, c: int) -> list[RoundOutcome]:
    """Protocol 1's round rule over rounds played under key, their outcomes
    in the order of their intakes (_take's: a (y, answer) pair, or the
    RoundOutcome of a malformed round, which stands).  Every round has
    challenge 1 except the last, whose challenge is c.

    One decode covers every image.  An answer to an image that does not
    invert scores 0 (inv_fail).  Preimage answers are credited by one
    public support check over their stacked answers (chk).  An equation
    answer is credited by the claw parity when d is in both good sets
    (parity), and by a fair coin when it is not (coin).  Only the coin
    draws from rng, after the decode."""
    taken = [t for t in intakes if not isinstance(t, RoundOutcome)]
    if not taken:
        return intakes
    # np.array of a list of equal-shape rows stacks them for a third of
    # np.stack's call overhead; one image is stacked as a view
    Y = np.array([y for y, _ in taken]) if len(taken) > 1 else taken[0][0][None]
    X0, X1, path = claw_from_image(key, Y, rows=True)
    equation = c == 0 and taken[-1] is intakes[-1]
    k = len(taken) - equation
    graded = []
    if k:
        w = np.zeros(k, dtype=np.int64)
        pre = path[:k] < OVER_BOUND
        if pre.any():
            answers = [a for (_, a), good in zip(taken, pre) if good]
            w[pre] = chk(
                key.public,
                np.array([a["b"] for a in answers]),
                np.array([a["x"] for a in answers]),
                Y[:k][pre],
            )
        graded = [
            RoundOutcome("chk" if good else "inv_fail", y, a, int(wi))
            for (y, a), good, wi in zip(taken, pre, w)
        ]
    if equation:
        y, answer = taken[-1]
        x0, x1, d = X0[-1], X1[-1], answer["d"]
        ring = key.ring
        if path[-1] >= OVER_BOUND:
            graded.append(RoundOutcome("inv_fail", y, answer, 0))
        elif in_good_set(ring, 0, x0, d) and in_good_set(ring, 1, x1, d):
            parity = claw_equation_bit(ring, x0, x1, d)
            graded.append(RoundOutcome("parity", y, answer, int(answer["u"] == parity)))
        else:
            graded.append(RoundOutcome("coin", y, answer, int(rng.integers(0, 2))))
    if len(taken) == len(intakes):
        return graded
    graded = iter(graded)
    return [t if isinstance(t, RoundOutcome) else next(graded) for t in intakes]


def _play_round(key: KeyPair, prover, rng: np.random.Generator, c: int) -> RoundOutcome:
    """One round of protocol 1's rule, graded at once: its intake (_take),
    then the one-round case of _grade_rounds.  Single-round trials are
    played here; run_protocol1 grades each epoch's rounds together (see
    the module docstring)."""
    return _grade_rounds(key, [_take(key, prover, c)], rng, c)[0]


def _play_round2(prover, c: int, t: int) -> RoundOutcome:
    """One round of protocol 2's rule.  The report to challenge 0 is a pair
    (e, k) of bits, k None allowed when unprobed (t = 0); it passes when
    e = 1 and, if probed, k = 0.  The report to challenge 1 is a label v in
    {0, 1, 2}; it passes when v is 0 or 1.  A malformed report scores 0."""
    try:
        ans = _ask(prover.round2, c, t)
        if c == 1:
            v = exact_int(ans)
            if v not in (0, 1, 2):
                raise MalformedAnswer("bad preimage label")
            return RoundOutcome("report", None, {"v": v}, int(v != 2))
        if not isinstance(ans, tuple) or len(ans) != 2:
            raise MalformedAnswer(f"bad equation report arity: {ans!r}")
        e, k = exact_int(ans[0]), None if ans[1] is None else exact_int(ans[1])
        if e not in (0, 1) or k not in ((0, 1) if t else (None, 0, 1)):
            raise MalformedAnswer("bad simplified equation report")
    except MalformedAnswer as exc:
        return RoundOutcome("malformed_answer", None, {"malformed": str(exc)}, 0)
    except (TypeError, ValueError, OverflowError) as exc:  # exact_int refused a value
        return RoundOutcome("malformed_answer", None, {"malformed": f"report out of domain: {exc}"}, 0)
    return RoundOutcome("report", None, {"e": e, "k": k}, e if t == 0 else e * (1 - k))


def _record(i: int, is_test: bool, c: int, t: int | None, epoch: int, out: RoundOutcome) -> RoundRecord:
    """The one rule for a round's record in both protocols: o is W on a
    test round; on a generation round (always challenge 1) it is the
    answer's bit, b or v, when W = 1, and 2 otherwise."""
    if is_test:
        o = out.w
    else:
        o = (out.answer["b"] if "b" in out.answer else out.answer["v"]) if out.w else 2
    return RoundRecord(i, "test" if is_test else "gen", c, t, epoch, out.y, out.answer, out.w, o)


# The most generation rounds that wait to be graded.  A key epoch's length
# is geometric with mean 1/p_test, and its queued rounds are graded on the
# round that fills the queue, or with the epoch's test round, whose image
# joins the same decode, so the cap bounds the grading work that lands on
# any one round, and what is held with a key.  A stack row costs ~6 us at
# desk-protocol (a stack of 8 ~110 us, of 16 ~165 us).  The cap was chosen
# by honest-desk's 99th-percentile round time (medians of 5 seeds, 30-s
# runs): 0.337 ms at cap 8, 0.354 ms (+4.9%) at 12 and 0.366 ms (+8.6%) at
# 16, for 4.5% and 7.7% more rounds a second; 16 is the largest cap whose
# tail stays within 10% of cap 8's.
_BATCH = 16


def run_protocol1(
    profile: ParameterProfile,
    prover,
    rng: np.random.Generator,
    n_rounds: int | None = None,
) -> Transcript:
    N = profile.N if n_rounds is None else n_rounds
    budget = _Budget(profile)
    tr = Transcript(mode="protocol1", profile=profile.as_dict(), n_rounds=N)

    def issue_key() -> KeyPair:
        key = gen(profile, rng)
        budget.key()
        tr.epochs.append(_key_digest(key))
        _give_key(prover, key)
        return key

    # the rounds of the current epoch played since the last grading, in
    # round order: (index, is_test, challenge, intake); an epoch's test
    # round is graded at once, so only the last round can be a test round
    queue: list[tuple[int, bool, int, object]] = []

    def grade_queue() -> RoundOutcome:
        """Grade the queued rounds under the current key in one
        _grade_rounds call, record them in round order and give the last
        one's outcome."""
        outs = _grade_rounds(key, [t for *_, t in queue], rng, queue[-1][2])
        epoch = len(tr.epochs) - 1
        for (i, is_test, c, _), out in zip(queue, outs):
            tr.records.append(_record(i, is_test, c, None, epoch, out))
        queue.clear()
        return outs[-1]

    key = issue_key()
    for i in range(N):
        is_test = bool(rng.random() < profile.p_test)
        budget.draw(_h2(profile.p_test))
        c = 1
        if is_test:
            c = int(rng.integers(0, 2))
            budget.draw(1.0)
        queue.append((i, is_test, c, _take(key, prover, c)))
        if is_test or len(queue) == _BATCH:
            if grade_queue().exit == "coin":
                budget.draw(1.0)
        # transport adapters flush round framing here; local provers have no hook
        end_round = getattr(prover, "end_round", None)
        if end_round is not None:
            end_round(i, refresh=is_test)
        if is_test:
            key = issue_key()
    if queue:
        grade_queue()

    tests = [r for r in tr.records if r.round_type == "test"]
    _decide(tr, tests, _threshold1(profile, N), budget, "no test rounds occurred; rejecting degenerate run")
    return tr


def _accepts(passes: list[int], threshold: float) -> bool:
    """The acceptance rule of both protocols (see the module docstring)."""
    return bool(passes) and sum(passes) >= threshold - 1e-9


def _threshold1(profile: ParameterProfile, n_rounds: int) -> float:
    return (1 - profile.gamma) * profile.p_test * n_rounds


def _decide(tr: Transcript, scored: list[RoundRecord], threshold: float, budget: _Budget, note: str):
    """Fill in tr's verdict, notes, output bits and budget from its scored test rounds."""
    passes = [r.w for r in scored]
    tr.test_count = len(passes)
    tr.test_passes = sum(passes)
    tr.threshold = threshold
    tr.accepted = _accepts(passes, threshold)
    if not passes:
        tr.notes.append(note)
    tr.output_bits = [r.o for r in tr.records if r.round_type == "gen" and r.w == 1]
    tr.budget = budget.as_dict(len(tr.output_bits))


def protocol1_verdict(records: list[RoundRecord], profile: ParameterProfile, n_rounds: int) -> bool:
    """Acceptance recomputed from the records alone."""
    return _accepts([r.w for r in records if r.round_type == "test"], _threshold1(profile, n_rounds))


def run_protocol2(
    profile: ParameterProfile,
    prover,
    rng: np.random.Generator,
    n_rounds: int | None = None,
) -> Transcript:
    N = profile.N if n_rounds is None else n_rounds
    budget = _Budget(profile)
    tr = Transcript(mode="protocol2", profile=profile.as_dict(), n_rounds=N)

    for i in range(N):
        is_test = bool(rng.random() < profile.p_test)
        budget.draw(_h2(profile.p_test))
        if is_test:
            c = int(rng.integers(0, 2))
            t = int(rng.random() < profile.kappa)
            budget.draw(1.0 + _h2(profile.kappa))
        else:
            c, t = 1, 0
        tr.records.append(_record(i, is_test, c, t, 0, _play_round2(prover, c, t)))

    scored = [r for r in tr.records if r.round_type == "test" and r.t == 1]
    threshold = (1 - profile.gamma / profile.kappa - profile.eta) * profile.kappa * profile.p_test * N
    _decide(tr, scored, threshold, budget, "no probed test rounds occurred; rejecting degenerate run")
    return tr


# -- single-round test ---------------------------------------------------------


@dataclass(frozen=True)
class SingleRoundReport:
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float
    eq_rate: float
    pre_rate: float


def single_round_test(
    profile: ParameterProfile, prover, trials: int, rng: np.random.Generator
) -> SingleRoundReport:
    """Fresh key per trial; image, then preimage or equation challenge with
    probability 1/2 each, graded by protocol 1's rule.  A trial whose sample
    is malformed scores 0 without the prover being asked for an answer."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    wins = 0
    eq = [0, 0]
    pre = [0, 0]
    for _ in range(trials):
        key = gen(profile, rng)
        _give_key(prover, key)
        c = int(rng.integers(0, 2))
        w = _play_round(key, prover, rng, c).w
        if c == 0:
            eq[w] += 1
        else:
            pre[w] += 1
        wins += w
    lo, hi = wilson_interval(wins, trials)
    return SingleRoundReport(
        trials=trials,
        successes=wins,
        rate=wins / trials,
        ci_low=lo,
        ci_high=hi,
        eq_rate=eq[1] / max(1, eq[0] + eq[1]),
        pre_rate=pre[1] / max(1, pre[0] + pre[1]),
    )


# -- classical baseline provers -------------------------------------------------


class CommittedPreimageProver:
    """Samples an honest branch-0 image and always answers the preimage
    challenge correctly; equation answers are uniform guesses."""

    wants_trapdoor = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.pub = None
        self._x = None

    def new_key(self, pub):
        self.pub = pub

    def next_sample(self):
        self._x, y = sample_branch(self.pub, 0, self.rng)
        return y

    def answer(self, c, t=None):
        if c == 1:
            return ("pre", 0, self._x)
        u = int(self.rng.integers(0, 2))
        d = self.rng.integers(0, 2, size=self.pub.profile.w, dtype=np.int64)
        return ("eq", u, d)


class RandomNoiseProver:
    """Uniform garbage everywhere."""

    wants_trapdoor = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.pub = None

    def new_key(self, pub):
        self.pub = pub

    def next_sample(self):
        return self.pub.ring.uniform(self.rng, self.pub.profile.m)

    def answer(self, c, t=None):
        prof = self.pub.profile
        if c == 1:
            return ("pre", int(self.rng.integers(0, 2)), self.pub.ring.uniform(self.rng, prof.n))
        return (
            "eq",
            int(self.rng.integers(0, 2)),
            self.rng.integers(0, 2, size=prof.w, dtype=np.int64),
        )


class ReplayProver:
    """Commits once per key epoch and replays the same image, preimage and
    guessed equation for every round of the epoch.  Demonstrates why the
    verifier must refresh keys: without refreshes a single lucky equation
    guess would keep winning, while the output bit never varies."""

    wants_trapdoor = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.pub = None
        self._y = None
        self._x = None
        self._d = None
        self._u = None

    def new_key(self, pub):
        self.pub = pub
        self._x, self._y = sample_branch(pub, 0, self.rng)
        self._d = self.rng.integers(0, 2, size=pub.profile.w, dtype=np.int64)
        self._u = int(self.rng.integers(0, 2))

    def next_sample(self):
        return self._y

    def answer(self, c, t=None):
        if c == 1:
            return ("pre", 0, self._x)
        return ("eq", self._u, self._d)


def prover_catalog() -> dict:
    """Protocol-1 and single-round adapters keyed by CLI name; each entry
    builds the prover from its rng."""
    return {
        "classical-committed": CommittedPreimageProver,
        "classical-random": RandomNoiseProver,
        "classical-replay": ReplayProver,
        "ideal": qsim.IdealProver,
        "qsim-micro": qsim.SimulatedProver,
    }


# -- simplified-protocol provers -------------------------------------------------


class BornDeviceProver:
    """Simplified-protocol adapter that measures a SimplifiedDevice by the
    Born rule, memorylessly from its declared state each round."""

    def __init__(self, dev: SimplifiedDevice, rng: np.random.Generator):
        dev.validate()
        self.dev = dev
        self.rng = rng
        wts = dev.image_weights()
        self._yprob = wts / wts.sum()

    def _pick(self, probs) -> int:
        probs = np.maximum(np.real(np.asarray(probs)), 0.0)
        return int(self.rng.choice(probs.size, p=probs / probs.sum()))

    def round2(self, c: int, t: int):
        dev = self.dev
        y = self._pick(self._yprob)
        phi = dev.phi[y] / np.real(np.trace(dev.phi[y]))
        if c == 0:
            p1 = float(np.real(np.trace(dev.M1(y) @ phi)))
            e = self._pick([1 - p1, p1])
            if t == 0:
                return (e, None)
            Me = dev.M1(y) if e else dev.M0[y]
            post = Me @ phi @ Me
            wt = float(np.real(np.trace(post)))
            if wt <= 0:
                return (e, 0)
            pk1 = float(np.real(np.trace(dev.K1(y) @ post))) / wt
            return (e, self._pick([1 - pk1, pk1]))
        probs = [
            float(np.real(np.trace(dev.Pi0[y] @ phi))),
            float(np.real(np.trace(dev.Pi1[y] @ phi))),
            float(np.real(np.trace(dev.Pi2(y) @ phi))),
        ]
        return self._pick(probs)


class ConstantSimplifiedProver:
    """Always reports a valid equation in the good subspace and the same
    preimage label; sails through the simplified protocol while emitting a
    constant output, which is exactly why unconstrained provers prove
    nothing there."""

    def __init__(self, rng=None):
        pass

    def round2(self, c: int, t: int):
        return (1, 0) if c == 0 else 0


def simplified_provers() -> dict:
    """Protocol-2 adapters keyed by CLI name; each entry builds the prover
    from its rng."""
    return {
        "device-honest": lambda rng: BornDeviceProver(honest_qubit_device(), rng),
        "device-constant": ConstantSimplifiedProver,
    }
