import copy

import numpy as np
import pytest
import scipy.stats

from clawrand.clawfree import (
    _sample_noise_bound,
    chk,
    claw_equation_bit,
    claw_from_image,
    claw_through,
    gen,
    in_good_set,
    invert_sample,
    sample_branch,
)
from clawrand.devices import branch_weight, honest_qubit_device, post_measurement
from clawrand.extract import empirical_min_entropy
from clawrand.gaussians import TruncGaussian
from clawrand.modq import SizeGuardError, residue_grid
from clawrand.profiles import get_profile
from clawrand.protocol import (
    BornDeviceProver,
    CommittedPreimageProver,
    ConstantSimplifiedProver,
    RandomNoiseProver,
    ReplayProver,
    SessionAbort,
    Transcript,
    _BATCH,
    _grade_rounds,
    _play_round,
    _take,
    prover_catalog,
    protocol1_verdict,
    run_protocol1,
    run_protocol2,
    simplified_provers,
    single_round_test,
)
from clawrand.qsim import IdealProver, SimulatedProver
from clawrand.rngstream import substream
from clawrand.trapdoor import OVER_BOUND, PRIMARY, DecodeFailure


def test_threshold_arithmetic_protocol1():
    # N=10, p_test=0.5, gamma=0.2: threshold = 4; 5 passes accept
    prof = get_profile("micro", N=10, p_test=0.5, gamma=0.2)
    tr = Transcript(mode="protocol1", profile=prof.as_dict(), n_rounds=10)
    from clawrand.protocol import RoundRecord

    for i in range(5):
        tr.records.append(
            RoundRecord(i, "test", 1, None, 0, None, {}, w=1, o=1)
        )
    assert (1 - prof.gamma) * prof.p_test * 10 == pytest.approx(4.0)
    assert protocol1_verdict(tr.records, prof, 10)
    tr.records[0].w = 0
    tr.records[1].w = 0
    assert not protocol1_verdict(tr.records, prof, 10)


def test_threshold_arithmetic_protocol2():
    prof = get_profile("micro", N=100, p_test=0.2, gamma=0.1, kappa=0.5, eta=0.1)
    want = (1 - 0.1 / 0.5 - 0.1) * 0.5 * 0.2 * 100
    assert want == pytest.approx(7.0)
    prover = ConstantSimplifiedProver()
    tr = run_protocol2(prof, prover, substream(1, "p2"))
    assert tr.threshold == pytest.approx(7.0)


def test_protocol1_ideal_accepts():
    # the abort rule compares test passes against (1-gamma)*p_test*N, so a
    # low binomial draw of test rounds sinks even a perfect prover; the
    # seed here is one where the draw lands at its mean
    prof = get_profile("desk-protocol")
    prover = IdealProver(substream(1, "prover", "ideal"))
    tr = run_protocol1(prof, prover, substream(1, "verifier"), n_rounds=400)
    assert tr.accepted
    assert tr.test_passes == tr.test_count  # noise-free profile: every test passes
    gens = [r for r in tr.records if r.round_type == "gen"]
    assert len(tr.output_bits) == len(gens)
    assert set(tr.output_bits).issubset({0, 1})


def test_protocol1_good_equations_always_pass_for_ideal():
    # the ideal prover's u is always the claw parity, so an equation round
    # can only lose to the coin on an excluded d; at this profile the
    # exclusion rate is ~2^-15, so every round of this run credits W = 1
    prof = get_profile("desk-protocol")
    prover = IdealProver(substream(3, "prover", "ideal"))
    tr = run_protocol1(prof, prover, substream(3, "verifier"), n_rounds=600)
    eq_rounds = [r for r in tr.records if r.challenge == 0]
    assert eq_rounds, "need at least one equation round"
    assert all(r.w == 1 for r in eq_rounds)


def test_protocol1_rejects_garbage_prover():
    class Counting(RandomNoiseProver):
        samples = 0

        def next_sample(self):
            self.samples += 1
            return super().next_sample()

    prof = get_profile("desk-protocol")
    prover = Counting(substream(4, "prover"))
    tr = run_protocol1(prof, prover, substream(4, "verifier"), n_rounds=200)
    assert not tr.accepted
    # one image per round: an uninvertible one is never re-requested, and scores 0
    assert prover.samples == len(tr.records) == 200
    tests = [r for r in tr.records if r.round_type == "test"]
    assert tests and all(r.w == 0 for r in tests)


def test_garbage_trial_decodes_one_image(monkeypatch):
    # the verifier's cost under attack, pinned as a count: one trapdoor
    # decode per single-round trial, however the image fails to invert
    from clawrand import protocol

    calls = []

    def counted(key, y, **kwargs):
        calls.append(y)
        return claw_from_image(key, y, **kwargs)

    monkeypatch.setattr(protocol, "claw_from_image", counted)
    prover = RandomNoiseProver(substream(9, "prover"))
    report = single_round_test(get_profile("desk-protocol"), prover, 1, substream(9, "verifier"))
    assert len(calls) == 1
    assert report.successes == 0


def test_protocol1_key_refresh_audit():
    prof = get_profile("micro", p_test=0.3)
    prover = CommittedPreimageProver(substream(5, "prover"))
    tr = run_protocol1(prof, prover, substream(5, "verifier"), n_rounds=200)
    epoch = 0
    for rec in tr.records:
        assert rec.key_epoch == epoch
        if rec.round_type == "test":
            epoch += 1
    assert len(tr.epochs) == epoch + 1
    # micro's valid key space is tiny, so digests repeat; they must still vary
    assert len(set(tr.epochs)) > 1


def test_protocol1_verdict_is_pure_function_of_records():
    prof = get_profile("micro")
    prover = CommittedPreimageProver(substream(6, "prover"))
    tr = run_protocol1(prof, prover, substream(6, "verifier"), n_rounds=150)
    assert protocol1_verdict(tr.records, prof, 150) == tr.accepted


def test_protocol1_micro_quantum_prover_accepts():
    prof = get_profile("micro")
    prover = SimulatedProver(substream(7, "prover", "qsim-micro"))
    tr = run_protocol1(prof, prover, substream(7, "verifier"), n_rounds=256)
    assert tr.accepted
    # every passing generation round emitted a bit
    assert len(tr.output_bits) >= 0.8 * sum(
        1 for r in tr.records if r.round_type == "gen"
    )


def test_challenge_draw_distribution():
    # the verifier's draw logic, exercised without the protocol machinery
    rng = substream(8, "draws")
    p_test = 0.25
    n = 100_000
    tests = 0
    c_on_test = [0, 0]
    for _ in range(n):
        is_test = rng.random() < p_test
        if is_test:
            tests += 1
            c_on_test[int(rng.integers(0, 2))] += 1
    assert scipy.stats.binomtest(tests, n, p_test).pvalue > 0.001
    assert scipy.stats.chisquare(c_on_test).pvalue > 0.001


def test_transcript_determinism():
    prof = get_profile("micro")
    a = run_protocol1(
        prof, CommittedPreimageProver(substream(9, "prover")), substream(9, "verifier"), 100
    )
    b = run_protocol1(
        prof, CommittedPreimageProver(substream(9, "prover")), substream(9, "verifier"), 100
    )
    assert a.to_jsonl() == b.to_jsonl()


def test_single_round_rates_and_ordering():
    prof = get_profile("desk-protocol")
    committed = CommittedPreimageProver(substream(10, "prover", "committed"))
    rep_c = single_round_test(prof, committed, 1500, substream(10, "verifier", "c"))
    assert abs(rep_c.rate - 0.75) < 0.05
    assert rep_c.pre_rate == pytest.approx(1.0)
    assert abs(rep_c.eq_rate - 0.5) < 0.06

    ideal = IdealProver(substream(11, "prover", "ideal"))
    rep_i = single_round_test(prof, ideal, 600, substream(11, "verifier", "i"))
    assert rep_i.rate >= 0.98

    noise = RandomNoiseProver(substream(12, "prover", "noise"))
    rep_n = single_round_test(prof, noise, 600, substream(12, "verifier", "n"))
    assert rep_n.rate < rep_c.rate < rep_i.rate


def test_replay_prover_demonstrates_refresh():
    # with key refreshes, each epoch's equation guess is a fresh coin and
    # the output collapses to a constant
    prof = get_profile("desk-protocol", p_test=0.4, gamma=0.6)
    prover = ReplayProver(substream(13, "prover"))
    tr = run_protocol1(prof, prover, substream(13, "verifier"), n_rounds=400)
    eq_tests = [r for r in tr.records if r.round_type == "test" and r.challenge == 0]
    rate = sum(r.w for r in eq_tests) / len(eq_tests)
    assert abs(rate - 0.5) < 0.15  # coin-flip on equations
    pre_tests = [r for r in tr.records if r.round_type == "test" and r.challenge == 1]
    assert all(r.w == 1 for r in pre_tests)  # replayed preimage stays valid in-epoch
    bits = np.array(tr.output_bits)
    assert bits.size and empirical_min_entropy(bits) == 0.0


def test_classical_provers_deterministic():
    prof = get_profile("micro")
    classical = {name: cls for name, cls in prover_catalog().items() if name.startswith("classical-")}
    for name, cls in classical.items():
        r1 = single_round_test(prof, cls(substream(14, name)), 50, substream(14, "v", name))
        r2 = single_round_test(prof, cls(substream(14, name)), 50, substream(14, "v", name))
        assert r1 == r2


class _Aborting(CommittedPreimageProver):
    """An honest branch-0 prover whose named method loses the session."""

    def __init__(self, rng, where):
        super().__init__(rng)
        self.where = where

    def next_sample(self):
        if self.where == "next_sample":
            raise SessionAbort("lost the session while sampling")
        return super().next_sample()

    def answer(self, c, t=None):
        if self.where == "answer":
            raise SessionAbort("lost the session while answering")
        return super().answer(c, t)


@pytest.mark.parametrize("where", ["next_sample", "answer"])
def test_session_abort_from_a_local_prover_aborts_protocol1(where):
    # a lost session aborts the run; it is never scored as a failed round
    prof = get_profile("desk-small")
    with pytest.raises(SessionAbort):
        run_protocol1(prof, _Aborting(substream(15, where), where), substream(15, "v", where), n_rounds=5)
    with pytest.raises(SessionAbort):
        single_round_test(prof, _Aborting(substream(15, where), where), 5, substream(15, "s", where))


def test_session_abort_from_a_local_prover_aborts_protocol2():
    class Aborting:
        def round2(self, c, t):
            raise SessionAbort("lost the session")

    with pytest.raises(SessionAbort):
        run_protocol2(get_profile("micro"), Aborting(), substream(15, "p2"), n_rounds=5)


def test_malformed_prover_scores_zero_but_run_completes():
    class Liar:
        wants_trapdoor = False

        def new_key(self, pub):
            self.pub = pub

        def next_sample(self):
            return self.pub.ring.uniform(np.random.default_rng(0), self.pub.profile.m)

        def answer(self, c, t=None):
            return ("eq", 7, [13])

    prof = get_profile("micro", p_test=0.5)
    tr = run_protocol1(prof, Liar(), substream(15, "verifier"), n_rounds=40)
    assert not tr.accepted
    assert all(r.w == 0 for r in tr.records if r.round_type == "test")


@pytest.mark.parametrize(
    "a,b",
    [(None, "honest"), ("x", "honest"), (1, None), (1, "ragged")],
    ids=["none-bit", "string-bit", "none-vector", "ragged-vector"],
)
def test_unconvertible_answer_scores_zero(a, b):
    # answers whose values do not convert to an int and an int64 vector
    # are malformed: the round scores 0 and the run goes on
    class Unconvertible(CommittedPreimageProver):
        def answer(self, c, t=None):
            kind, _, v = super().answer(c, t)
            v = {"honest": v, "ragged": [[0], [0, 1]]}.get(b, b)
            return kind, a, v

    prof = get_profile("micro", p_test=0.5)
    rep = single_round_test(prof, Unconvertible(substream(16, "prover")), 20, substream(16, "v"))
    assert rep.successes == 0
    tr = run_protocol1(prof, Unconvertible(substream(17, "prover")), substream(17, "v"), n_rounds=40)
    assert not tr.accepted
    assert tr.test_count > 0
    for r in tr.records:
        assert "out of domain" in r.answer["malformed"]
        if r.round_type == "test":
            assert r.w == 0


@pytest.mark.parametrize(
    "field,message",
    [
        ("sample", "sample entries not integers"),
        ("bit", "answer out of domain"),
        ("vector", "answer out of domain"),
        ("nan", "answer out of domain"),
        ("inf", "answer out of domain"),
    ],
)
def test_non_integral_values_score_zero(field, message):
    # a value that int64 conversion would change is malformed, never
    # truncated to an honest one: the round scores 0 and the run goes on
    class Fractional(CommittedPreimageProver):
        def next_sample(self):
            y = super().next_sample()
            return y + 0.4 if field == "sample" else y

        def answer(self, c, t=None):
            kind, a, v = super().answer(c, t)
            v = np.asarray(v, dtype=float)
            if field == "bit":
                a = a + 0.9
            elif field == "vector":
                v = v + 0.5
            elif field in ("nan", "inf"):
                v[0] = float(field)
            return kind, a, v

    prof = get_profile("micro", p_test=0.5)
    rep = single_round_test(prof, Fractional(substream(16, "prover")), 20, substream(16, "v"))
    assert rep.successes == 0
    tr = run_protocol1(prof, Fractional(substream(17, "prover")), substream(17, "v"), n_rounds=20)
    assert tr.test_count > 0 and tr.test_passes == 0
    assert all(message in r.answer["malformed"] for r in tr.records)


def test_protocol2_non_integral_reports_score_zero():
    # (1.25, 0.5) and 0.5 truncate to a passing equation report and
    # preimage label; refused, every test round scores 0
    class Fractional:
        def round2(self, c, t):
            return (1.25, 0.5) if c == 0 else 0.5

    prof = get_profile("micro", N=200, p_test=0.3)
    tr = run_protocol2(prof, Fractional(), substream(18, "verifier"))
    assert tr.test_count > 0 and tr.test_passes == 0
    assert all("malformed" in r.answer for r in tr.records)


@pytest.mark.parametrize("report", [(1, 0, "junk", None), (1, 5)], ids=["four-entries", "k-out-of-domain"])
def test_protocol2_equation_report_is_a_pair_of_bits(report):
    # an equation report is exactly (e, k), e a bit and k a bit (None also
    # when unprobed): extra entries are not dropped, and k = 5 is not
    # recorded on an unprobed round
    class Odd:
        def round2(self, c, t):
            return report if c == 0 else 0

    prof = get_profile("micro", N=200, p_test=0.5)
    tr = run_protocol2(prof, Odd(), substream(19, "verifier"))
    eq = [r for r in tr.records if r.challenge == 0]
    assert {r.t for r in eq} == {0, 1}
    assert all(r.w == 0 and "malformed" in r.answer for r in eq)


class _Scripted:
    """Hands the verifier a fixed sample and a fixed answer, counting the
    answers it is asked for."""

    wants_trapdoor = False
    answers = 0

    def __init__(self, sample, ans):
        self.sample = sample
        self.ans = ans

    def next_sample(self):
        return self.sample

    def answer(self, c, t=None):
        self.answers += 1
        return self.ans


def _exit_cases():
    """A desk-small key and, for each exit of protocol 1's round rule, the
    challenge and the scripted prover that takes it."""
    key = gen(get_profile("desk-small"), substream(23, "key"))
    rng = substream(23, "prover")
    ring, prof = key.ring, key.profile
    x0, y = sample_branch(key.public, 0, rng)
    x1 = claw_through(key, 0, x0)[1]
    while True:
        d = rng.integers(0, 2, size=prof.w, dtype=np.int64)
        if in_good_set(ring, 0, x0, d) and in_good_set(ring, 1, x1, d):
            break
    u = claw_equation_bit(ring, x0, x1, d)
    uniform = ring.uniform(rng, prof.m)
    with pytest.raises(DecodeFailure):
        claw_from_image(key, uniform)
    return key, {
        "malformed_sample": (1, _Scripted(y[:-1], ("pre", 0, x0))),
        "malformed_answer": (1, _Scripted(y, ("pre",))),
        "inv_fail": (0, _Scripted(uniform, ("eq", u, d))),
        "chk": (1, _Scripted(y, ("pre", 0, x0))),
        "parity": (0, _Scripted(y, ("eq", u, d))),
        "coin": (0, _Scripted(y, ("eq", u, np.zeros(prof.w, dtype=np.int64)))),
    }


@pytest.mark.parametrize("exit", ["malformed_sample", "malformed_answer", "inv_fail", "chk", "parity", "coin"])
def test_every_exit_of_a_protocol1_round(exit):
    key, cases = _exit_cases()
    c, prover = cases[exit]
    out = _play_round(key, prover, substream(23, "verifier"), c)
    assert out.exit == exit
    if exit == "malformed_sample":
        assert out.y is None
    else:
        assert np.array_equal(out.y, prover.sample)
    if exit in ("malformed_sample", "malformed_answer", "inv_fail"):
        assert out.w == 0
    if exit in ("chk", "parity"):
        assert out.w == 1
    if exit == "coin":
        assert out.w in (0, 1)
    assert ("malformed" in out.answer) == exit.startswith("malformed")


def _generation_cases(name):
    """A key of the profile and, for every outcome a generation round can
    have under it, one (y, answer) that takes it: an honest image, x off
    by one, the wrong b, and at gadget profiles an image that only a
    fallback repair decodes and one that does not decode, or at micro
    profiles an image whose nearest s is tied, where the key has one."""
    prof = get_profile(name)
    ring = prof.ring()
    rng = substream(31, "batch", name)
    bound = _sample_noise_bound(prof)
    while True:
        key = gen(prof, rng)
        if key.gadget is not None:
            break
        table = key.table
        tied = np.flatnonzero(table.tied & (np.sqrt(table.norm2.astype(float)) <= bound))
        # micro's keys have no tied image (every image decodes there)
        if tied.size or name == "micro":
            break
    x, y = sample_branch(key.public, 0, rng)
    cases = {
        "honest": (y, {"b": 0, "x": x}),
        "x off by one": (y, {"b": 0, "x": ring.reduce(x + 1)}),
        "wrong b": (y, {"b": 1, "x": x}),
    }
    if key.gadget is None:
        if tied.size:
            i = tied[0]
            cases["tied"] = (residue_grid(prof.q, prof.m)[i], {"b": 0, "x": table.s[i]})
        return key, cases
    noise = TruncGaussian(ring, {"desk-small": 2.0, "desk-protocol": 1.0}[name])
    while "fallback" not in cases or "failed" not in cases:
        x = ring.uniform(rng, prof.n)
        y = ring.reduce(ring.matmul(key.public.A, x) + noise.sample_vec(rng, prof.m))
        path = invert_sample(key, y[None])[2][0]
        if path >= OVER_BOUND:
            cases.setdefault("failed", (y, {"b": 0, "x": x}))
        elif path != PRIMARY:
            cases.setdefault("fallback", (y, {"b": 0, "x": x}))
    return key, cases


def _graded_alone(key, y, answer, c, rng):
    """(exit, W) of protocol 1's rule for one round after its intake,
    written out one image at a time: the reference for _grade_rounds."""
    try:
        x0, x1 = claw_from_image(key, y)
    except DecodeFailure:
        return "inv_fail", 0
    if c == 1:
        return "chk", chk(key.public, answer["b"], answer["x"], y)
    ring, d = key.ring, answer["d"]
    if in_good_set(ring, 0, x0, d) and in_good_set(ring, 1, x1, d):
        return "parity", int(answer["u"] == claw_equation_bit(ring, x0, x1, d))
    return "coin", int(rng.integers(0, 2))


def _test_rows(key, cases):
    """Test rounds to end a stack with, as (c, (y, answer)): each
    generation case as a preimage round, and on the honest image an
    equation round for each equation exit it can take (parity passed and
    failed where the key has a good d, and the coin), plus one on every
    image that does not invert (inv_fail)."""
    ring, prof = key.ring, key.profile
    rows = [(1, case) for case in cases.values()]
    zeros = np.zeros(prof.w, dtype=np.int64)  # its secret mask is 0: never in a good set
    for y, _ in cases.values():
        try:
            claw_from_image(key, y)
        except DecodeFailure:
            rows.append((0, (y, {"u": 0, "d": zeros})))
    y = cases["honest"][0]
    x0, x1 = claw_from_image(key, y)
    rng = substream(36, "good-d", prof.name)
    for _ in range(200):  # micro's n = 1 leaves branch 1's half, and so the good set, empty
        d = rng.integers(0, 2, size=prof.w, dtype=np.int64)
        if in_good_set(ring, 0, x0, d) and in_good_set(ring, 1, x1, d):
            u = claw_equation_bit(ring, x0, x1, d)
            rows += [(0, (y, {"u": u, "d": d})), (0, (y, {"u": 1 - u, "d": d}))]
            break
    rows.append((0, (y, {"u": 0, "d": zeros})))
    return rows


@pytest.mark.parametrize("size", [1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
@pytest.mark.parametrize("name", ["desk-small", "desk-protocol", "micro", "micro-noisy"])
def test_batch_grades_each_round_as_it_is_graded_alone(name, size):
    # every row's exit and W from one stack are those the round gets
    # graded alone; stacks of one hold each case in turn, longer stacks
    # cycle through the cases in a shuffled order.  Each stack is graded
    # as generation rounds only, and again ended by each test round, whose
    # coin must leave the verifier's stream where grading it alone does
    key, cases = _generation_cases(name)
    kinds = sorted(cases)
    if size == 1:
        stacks = [[kind] for kind in kinds]
    else:
        order = substream(32, "batch-order", name, size).permutation(size)
        stacks = [[kinds[j % len(kinds)] for j in order]]
    exits, test_exits = set(), set()
    for n, stack in enumerate(stacks):
        taken = [cases[kind] for kind in stack]
        for j, (c, test_row) in enumerate([(1, None), *_test_rows(key, cases)]):
            rows = taken if test_row is None else [*taken, test_row]
            rng = substream(33, "verifier", name, size, n, j)
            twin = copy.deepcopy(rng)
            outcomes = _grade_rounds(key, rows, rng, c)
            assert len(outcomes) == len(rows)
            for (y, answer), out in zip(taken, outcomes):
                assert (out.exit, out.w) == _graded_alone(key, y, answer, 1, None)
                assert out.y is y and out.answer is answer
                exits.add((out.exit, out.w))
            if test_row is not None:
                out = outcomes[-1]
                assert (out.exit, out.w) == _graded_alone(key, *test_row, c, twin)
                assert out.y is test_row[0] and out.answer is test_row[1]
                test_exits.add((c, out.exit) if out.exit == "coin" else (c, out.exit, out.w))
            assert rng.bit_generator.state == twin.bit_generator.state
    assert {("chk", 0), ("chk", 1)} <= exits
    # an image that does not invert: a decode failure, or a tied micro one
    assert (("inv_fail", 0) in exits) == (name != "micro")
    gadget = key.gadget is not None
    want = {(1, "chk", 0), (1, "chk", 1), (0, "coin")}
    assert want <= test_exits
    assert ({(0, "parity", 0), (0, "parity", 1)} <= test_exits) == gadget
    assert ((0, "inv_fail", 0) in test_exits) == ((1, "inv_fail", 0) in test_exits) == (name != "micro")


def test_generation_batches_are_capped_keep_their_epoch_and_draw_nothing(monkeypatch):
    # long epochs (p_test 0.02) fill whole batches.  Each stack holds at
    # most _BATCH generation rounds, then at most its epoch's test round,
    # last; it is graded under the key of its own epoch, before that key
    # is refreshed, and leaves the verifier's stream where it found it
    # unless its test round exits by the coin, which draws one bit
    from clawrand import protocol

    rng = substream(34, "verifier")
    keys, stacks = [], []
    gen_orig, grade_orig = protocol.gen, protocol._grade_rounds

    def recording_gen(*args):
        keys.append(gen_orig(*args))
        return keys[-1]

    def recording_grade(key, intakes, rng_, c):
        assert rng_ is rng
        twin = copy.deepcopy(rng)
        outs = grade_orig(key, intakes, rng_, c)
        if outs[-1].exit == "coin":
            twin.integers(0, 2)
        assert rng.bit_generator.state == twin.bit_generator.state
        stacks.append((key, intakes, c, outs[-1].exit))
        return outs

    monkeypatch.setattr(protocol, "gen", recording_gen)
    monkeypatch.setattr(protocol, "_grade_rounds", recording_grade)
    prof = get_profile("micro", p_test=0.02)
    tr = run_protocol1(prof, CommittedPreimageProver(substream(34, "prover")), rng, n_rounds=600)
    recs = iter(tr.records)
    gen_rows, last_exits = [], set()
    for key, intakes, c, last_exit in stacks:
        stack = [next(recs) for _ in intakes]
        *gens, last = stack
        assert {r.round_type for r in gens} <= {"gen"}
        gen_rows.append(sum(r.round_type == "gen" for r in stack))
        assert gen_rows[-1] <= _BATCH and c == last.challenge
        if last_exit == "coin":
            assert last.round_type == "test"
        last_exits.add((last.round_type, last_exit))
        assert all(np.array_equal(r.y, y) for r, (y, _) in zip(stack, intakes))
        assert {keys[r.key_epoch] is key for r in stack} == {True}
    assert next(recs, None) is None
    assert max(gen_rows) == _BATCH
    # both sides of the coin rule were seen on test rounds
    assert {("test", "coin"), ("test", "chk")} <= last_exits


@pytest.mark.parametrize("p_test,rounds", [(0.1, 0), (0.0, 20)])
def test_protocol1_rejects_run_without_test_rounds(p_test, rounds):
    # with p_test = 0 the threshold is 0, which no test passes would meet
    prof = get_profile("micro", p_test=p_test)
    prover = CommittedPreimageProver(substream(20, "prover"))
    tr = run_protocol1(prof, prover, substream(20, "verifier"), n_rounds=rounds)
    assert tr.test_count == 0
    assert not tr.accepted
    assert not protocol1_verdict(tr.records, prof, rounds)
    assert any("degenerate" in n for n in tr.notes)


@pytest.mark.parametrize(
    "spoil",
    [lambda y, q: y[:-1], lambda y, q: y + q, lambda y, q: y - q * ((1 << 63) // q)],
    ids=["short", "plus-q", "negative"],
)
def test_single_round_malformed_sample_asks_no_answer(spoil):
    class BadSamples(CommittedPreimageProver):
        answers = 0

        def next_sample(self):
            return spoil(super().next_sample(), self.pub.profile.q)

        def answer(self, c, t=None):
            self.answers += 1
            return super().answer(c, t)

    prover = BadSamples(substream(21, "prover"))
    rep = single_round_test(get_profile("micro"), prover, 30, substream(21, "verifier"))
    assert rep.successes == 0
    assert prover.answers == 0


def _desk_round():
    """A desk-protocol key, an honest branch-0 image y and its preimage x,
    and an equation answer (u, d) that the claw parity passes."""
    key = gen(get_profile("desk-protocol"), substream(37, "key"))
    rng = substream(37, "prover")
    ring, prof = key.ring, key.profile
    x, y = sample_branch(key.public, 0, rng)
    x1 = claw_through(key, 0, x)[1]
    while True:
        d = rng.integers(0, 2, size=prof.w, dtype=np.int64)
        if in_good_set(ring, 0, x, d) and in_good_set(ring, 1, x1, d):
            return key, y, x, claw_equation_bit(ring, x, x1, d), d


def _spoiled(v, value):
    """v with entry 0 set to value, as int64, or as uint64 where value is
    2^63, which int64 cannot hold."""
    out = v.astype(np.uint64 if value == 1 << 63 else np.int64)
    out[0] = value
    return out


@pytest.mark.parametrize(
    "value", [-1, "q", (1 << 63) - 1, -(1 << 63), 1 << 63], ids=["minus-1", "q", "int64-max", "int64-min", "2^63"]
)
@pytest.mark.parametrize("field", ["sample", "x", "d"])
def test_entries_outside_their_range_are_malformed_on_desk_protocol(field, value):
    # the extremes of int64, and 2^63, which an int64 conversion wraps to
    # -2^63, are refused as -1 and q are, with the same message; a refused
    # sample asks for no answer
    key, y, x, u, d = _desk_round()
    value = key.profile.q if value == "q" else value
    c = 0 if field == "d" else 1
    sample = _spoiled(y, value) if field == "sample" else y
    ans = ("eq", u, _spoiled(d, value)) if c == 0 else ("pre", 0, _spoiled(x, value) if field == "x" else x)
    prover = _Scripted(sample, ans)
    out = _play_round(key, prover, substream(37, "verifier"), c)
    message = {
        "sample": "sample entries outside [0, q)",
        "x": "preimage answer out of domain",
        "d": "equation answer out of domain",
    }[field]
    assert out.exit == ("malformed_sample" if field == "sample" else "malformed_answer")
    assert out.answer == {"malformed": message} and out.w == 0
    assert prover.answers == (field != "sample")


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64, np.bool_])
def test_entries_of_any_integer_dtype_grade_as_int64_on_desk_protocol(dtype):
    # the edges of the range, 0 and q - 1 (0 and 1 for a bool array), sent
    # as another integer dtype: each round grades, and records, exactly
    # as its int64 twin, alone and in a stack of every challenge
    key, y, x, u, d = _desk_round()
    top = key.profile.q - 1
    if dtype is np.bool_:
        y, x, top = y & 1, x & 1, 1
    assert {0, top} <= set(y.tolist()) & set(x.tolist())
    rounds = [(1, y, ("pre", 0, x)), (1, y, ("pre", 1, x)), (0, y, ("eq", u, d)), (0, y, ("eq", 1 - u, d))]

    def outcomes(cast, rounds):
        intakes = [_take(key, _Scripted(cast(img), (kind, a, cast(v))), c) for c, img, (kind, a, v) in rounds]
        rng = substream(38, "verifier", len(rounds))
        return _grade_rounds(key, intakes, rng, rounds[-1][0]), rng.bit_generator.state

    for stack in [[r] for r in rounds] + [rounds[:2]] + [rounds[:2] + rounds[k:k + 1] for k in (2, 3)]:
        want, want_state = outcomes(lambda v: v, stack)
        got, got_state = outcomes(lambda v: v.astype(dtype), stack)
        assert got_state == want_state
        for g, w in zip(got, want):
            assert (g.exit, g.w) == (w.exit, w.w)
            assert g.y.dtype == np.int64 and np.array_equal(g.y, w.y)
            assert g.answer.keys() == w.answer.keys()
            for k, v in w.answer.items():
                assert np.array_equal(g.answer[k], v) and np.asarray(g.answer[k]).dtype == np.asarray(v).dtype


@pytest.mark.parametrize("trials", [0, -2])
def test_single_round_rejects_no_trials(trials):
    prover = RandomNoiseProver(substream(22, "prover"))
    with pytest.raises(ValueError):
        single_round_test(get_profile("micro"), prover, trials, substream(22, "verifier"))


def test_protocol2_honest_device():
    prof = get_profile("micro", N=600, p_test=0.3)
    dev = honest_qubit_device()
    prover = BornDeviceProver(dev, substream(16, "prover"))
    tr = run_protocol2(prof, prover, substream(16, "verifier"))
    assert tr.accepted
    assert tr.test_passes == tr.test_count  # overlap 1/2 device never fails
    # preimage labels match the post-measurement branch weights
    v_rounds = [r for r in tr.records if r.challenge == 1]
    counts = np.bincount([r.answer["v"] for r in v_rounds], minlength=3)
    weights = [branch_weight(post_measurement(dev, (1, v))) for v in (0, 1, 2)]
    assert weights[2] == pytest.approx(0.0)
    assert scipy.stats.chisquare(counts[:2], np.array(weights[:2]) * counts.sum()).pvalue > 0.001
    # output has real entropy
    bits = np.array(tr.output_bits)
    assert empirical_min_entropy(bits) > 0.8


def test_protocol2_constant_prover_accepts_without_randomness():
    prof = get_profile("micro", N=400, p_test=0.3)
    tr = run_protocol2(prof, ConstantSimplifiedProver(), substream(17, "verifier"))
    assert tr.accepted  # unconstrained provers pass the simplified protocol freely
    assert set(tr.output_bits) == {0}
    assert empirical_min_entropy(np.array(tr.output_bits)) == 0.0


def test_protocol2_rejects_when_no_probed_rounds():
    prof = get_profile("micro", N=6, p_test=0.01, kappa=0.01)
    tr = run_protocol2(prof, ConstantSimplifiedProver(), substream(18, "verifier"))
    if tr.test_count == 0:
        assert not tr.accepted
        assert any("degenerate" in n for n in tr.notes)


def test_prover_catalog_names():
    cat = prover_catalog()
    assert set(cat) == {
        "ideal",
        "qsim-micro",
        "classical-committed",
        "classical-random",
        "classical-replay",
    }
    assert set(simplified_provers()) == {"device-honest", "device-constant"}


def _assert_canonical(v, q):
    v = np.asarray(v)
    assert v.dtype == np.int64 and v.min() >= 0 and v.max() < q


@pytest.mark.parametrize("name", ["micro", "micro-noisy", "desk-small", "desk-protocol"])
def test_residues_are_canonical_by_construction(name):
    # keys, decoded claws and every catalog prover's samples and preimages
    # are int64 in [0, q) as produced, since nothing downstream re-reduces
    prof = get_profile(name)
    key = gen(prof, substream(5, "canonical", name))
    for v in (key.public.A, key.public.u, key.s_bits, *claw_from_image(key, key.public.u)):
        _assert_canonical(v, prof.q)
    decoded = 0
    for kind, cls in sorted(prover_catalog().items()):
        prover = cls(substream(5, "canonical", name, kind))
        try:
            prover.new_key(key if getattr(prover, "wants_trapdoor", False) else key.public)
            ys = [prover.next_sample() for _ in range(4)]
        except SizeGuardError:
            assert kind == "qsim-micro"  # the state vector exists at micro scale only
            continue
        for y in ys:
            _assert_canonical(y, prof.q)
            try:
                claw = claw_from_image(key, y)
            except (DecodeFailure, SizeGuardError):
                continue
            decoded += 1
            for x in claw:
                _assert_canonical(x, prof.q)
        tag, _, x = prover.answer(1)
        assert tag == "pre"
        _assert_canonical(x, prof.q)
    assert decoded > 0


def test_budget_reports_expansion():
    prof = get_profile("desk-protocol")
    prover = IdealProver(substream(19, "prover"))
    tr = run_protocol1(prof, prover, substream(19, "verifier"), n_rounds=300)
    assert tr.budget["verifier_bits"] > 0
    assert tr.budget["output_bits"] == len(tr.output_bits)
