import copy
import math

import numpy as np
import pytest
import scipy.stats

from clawrand.clawfree import PublicKey, claw_equation_bit, claw_from_image, density_public, gen, inv
from clawrand.modq import SizeGuardError, bit_encode, residue_grid
from clawrand.profiles import get_profile
from clawrand.qsim import (
    IdealProver,
    SimulatedProver,
    _cdf,
    _draw,
    _fwht,
    equation_violation_bound,
    measure_equation,
    measure_image,
    measure_preimage,
    prepare_sampling_state,
)
from clawrand.rngstream import substream


@pytest.fixture(scope="module")
def micro_key():
    return gen(get_profile("micro"), substream(200, "qsim-key"))


@pytest.fixture(scope="module")
def micro_state(micro_key):
    return prepare_sampling_state(micro_key.public)


def test_prepared_norm_and_born_rule(micro_key, micro_state):
    st = micro_state
    assert st.norm() == pytest.approx(1.0, abs=1e-10)
    prof = micro_key.profile
    q, n, m = prof.q, prof.n, prof.m
    xs = residue_grid(q, n)
    ys = residue_grid(q, m)
    for b in (0, 1):
        for xi in range(q**n):
            for yi in range(0, q**m, 7):
                want = density_public(micro_key.public, b, xs[xi], ys[yi]) / (2 * q**n)
                assert st.amps[b, xi, yi] ** 2 == pytest.approx(want, abs=1e-12)


def test_image_marginal_matches_density_sum(micro_key, micro_state):
    prof = micro_key.profile
    q, n, m = prof.q, prof.n, prof.m
    marg = (micro_state.amps**2).sum(axis=(0, 1))
    xs = residue_grid(q, n)
    ys = residue_grid(q, m)
    for yi in range(q**m):
        want = sum(
            density_public(micro_key.public, b, x, ys[yi]) for b in (0, 1) for x in xs
        ) / (2 * q**n)
        assert marg[yi] == pytest.approx(want, abs=1e-12)


def test_image_measurement_frequencies_chisquare(micro_key, micro_state):
    rng = substream(13, "born-y")
    prof = micro_key.profile
    probs = (micro_state.amps**2).sum(axis=(0, 1))
    shots = 10_000
    counts = np.zeros(prof.q**prof.m, dtype=np.int64)
    for _ in range(shots):
        col = measure_image(micro_state, rng)
        idx = 0
        for v in col.y:
            idx = idx * prof.q + int(v)
        counts[idx] += 1
    keep = probs > 0
    assert not counts[~keep].any()
    assert scipy.stats.chisquare(counts[keep], probs[keep] * shots).pvalue > 0.001


def test_collapse_is_exact_claw(micro_key, micro_state):
    rng = substream(1, "collapse")
    for _ in range(50):
        col = measure_image(micro_state, rng)
        x0, x1 = claw_from_image(micro_key, col.y)
        support = {(b, xi) for b, xi in zip(*np.nonzero(np.abs(col.amps) > 1e-12))}
        xs = residue_grid(micro_key.profile.q, micro_key.profile.n)
        want = {(0, _rank(xs, x0)), (1, _rank(xs, x1))}
        assert support == want
        vals = [col.amps[b, xi] for b, xi in sorted(support)]
        assert vals[0] == pytest.approx(vals[1], abs=1e-10)
        assert sum(v**2 for v in vals) == pytest.approx(1.0, abs=1e-10)


def _rank(xs, x):
    return int(np.flatnonzero((xs == x).all(axis=1))[0])


def test_never_samples_outside_support(micro_key, micro_state):
    rng = substream(2, "supp")
    for _ in range(200):
        col = measure_image(micro_state, rng)
        total = sum(
            density_public(micro_key.public, b, x, col.y)
            for b in (0, 1)
            for x in residue_grid(micro_key.profile.q, micro_key.profile.n)
        )
        assert total > 0


def test_preimage_measurement(micro_key, micro_state):
    rng = substream(3, "pre")
    bs = []
    for _ in range(3000):
        col = measure_image(micro_state, rng)
        b, x = measure_preimage(col, rng)
        assert np.array_equal(inv(micro_key, b, col.y), x)
        bs.append(b)
    counts = np.bincount(bs, minlength=2)
    assert scipy.stats.chisquare(counts).pvalue > 0.001


def test_equation_measurement_exact_and_uniform(micro_key, micro_state):
    rng = substream(4, "eq")
    ds = []
    for _ in range(3000):
        col = measure_image(micro_state, rng)
        u, d = measure_equation(col, rng)
        x0, x1 = claw_from_image(micro_key, col.y)
        assert u == claw_equation_bit(micro_key.ring, x0, x1, d)
        ds.append(int((d * (1 << np.arange(d.size))).sum()))
    counts = np.bincount(ds, minlength=2 ** micro_key.profile.w)
    assert scipy.stats.chisquare(counts).pvalue > 0.001


def test_single_preimage_branch_hadamard_algebra(micro_key):
    # a lone branch |b>|J(x)> Hadamards to the full uniform superposition
    # with sign (-1)^(u*b + d.J(x)); direct state computation, since the
    # outcome distribution alone carries no u-d correlation
    prof = micro_key.profile
    state = prepare_sampling_state(micro_key.public)
    rng = substream(5, "single")
    col = measure_image(state, rng)
    col.amps[1, :] = 0.0
    col.amps /= np.sqrt((col.amps**2).sum())
    keep = np.flatnonzero(np.abs(col.amps[0]) > 1e-12)
    assert keep.size == 1
    x = residue_grid(prof.q, prof.n)[keep[0]]
    jbits = bit_encode(micro_key.ring, x)
    w = prof.w
    psi = np.zeros(2 ** (w + 1))
    psi[int(jbits @ (1 << np.arange(w)))] = 1.0  # b = 0 branch
    out = _fwht(psi) / math.sqrt(psi.size)
    for t in range(out.size):
        u, dint = t >> w, t & ((1 << w) - 1)
        d = (dint >> np.arange(w)) & 1
        sign = (-1) ** ((u * 0 + int(d @ jbits)) % 2)
        assert out[t] == pytest.approx(sign / math.sqrt(out.size), abs=1e-12)
    # and the measured distribution is uniform: u carries no information
    us = [measure_equation(col, rng)[0] for _ in range(400)]
    assert 0.3 < np.mean(us) < 0.7


def test_noisy_profile_violation_rate_within_bound():
    prof = get_profile("micro-noisy")
    key = gen(prof, substream(6, "noisy"))
    state = prepare_sampling_state(key.public)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)
    bound = equation_violation_bound(key)
    rng = substream(7, "noisy-shots")
    shots = 4000
    viol = 0
    skipped = 0
    for _ in range(shots):
        col = measure_image(state, rng)
        u, d = measure_equation(col, rng)
        try:
            x0, x1 = claw_from_image(key, col.y)
        except Exception:
            skipped += 1
            continue
        viol += int(u != claw_equation_bit(key.ring, x0, x1, d))
    rate = viol / (shots - skipped)
    sigma = math.sqrt(max(rate * (1 - rate), 1e-6) / (shots - skipped))
    # logged, checked only against the exact trace-distance bound plus noise
    assert rate <= bound + 5 * sigma


def test_micro3_gadget_profile_end_to_end():
    # the q=3 micro shape is the smallest one that still fits the gadget
    # trapdoor (m = w + n exactly); dimension 2 * 3^4 = 162
    prof = get_profile("micro3")
    assert prof.uses_gadget
    key = gen(prof, substream(14, "m3"))
    assert key.gadget is not None
    state = prepare_sampling_state(key.public)
    assert state.amps.size == 162
    assert state.norm() == pytest.approx(1.0, abs=1e-10)
    rng = substream(14, "m3-shots")
    for _ in range(300):
        col = measure_image(state, rng)
        u, d = measure_equation(col, rng)
        x0, x1 = claw_from_image(key, col.y)
        assert u == claw_equation_bit(key.ring, x0, x1, d)
    ys = residue_grid(3, 3)
    for b in (0, 1):
        for x in range(3):
            for y in ys:
                from clawrand.clawfree import chk

                assert chk(key.public, b, [x], y) == int(
                    density_public(key.public, b, [x], y) > 0
                )


def _prepare_reference(pub):
    # reference: one (b, x) at a time, outer products coordinate by coordinate
    prof = pub.profile
    q, n, m = prof.q, prof.n, prof.m
    dens = pub.noise_dist().density_table()
    xs = residue_grid(q, n)
    amps = np.zeros((2, q**n, q**m))
    for b in (0, 1):
        shifts = pub.ring.reduce(xs @ pub.A.T + b * pub.u[None, :])
        for xi in range(q**n):
            block = np.array([1.0])
            for j in range(m):
                col = dens[np.mod(np.arange(q) - shifts[xi, j], q)]
                block = np.multiply.outer(block, col).reshape(-1)
            amps[b, xi] = block
    return np.sqrt(amps / (2 * q**n))


def _measure_equation_reference(col, rng):
    # reference: the bit register filled one x at a time through bit_encode
    prof = col.pub.profile
    w = prof.w
    psi = np.zeros(2 ** (w + 1))
    pow2 = 1 << np.arange(w, dtype=np.int64)
    for b in (0, 1):
        for xi, x in enumerate(residue_grid(prof.q, prof.n)):
            if col.amps[b, xi] != 0.0:
                psi[(b << w) | int(bit_encode(col.pub.ring, x) @ pow2)] += col.amps[b, xi]
    probs = (_fwht(psi) / math.sqrt(psi.size)) ** 2
    t = int(rng.choice(probs.size, p=probs / probs.sum()))
    return t >> w, (t & ((1 << w) - 1)) >> np.arange(w, dtype=np.int64) & 1


def _measure_image_reference(state, rng):
    # reference: the image marginal summed and drawn by rng.choice per shot
    prof = state.pub.profile
    probs = (state.amps**2).sum(axis=(0, 1))
    yi = int(rng.choice(probs.size, p=probs / probs.sum()))
    collapsed = state.amps[:, :, yi] / math.sqrt(probs[yi])
    return np.array(np.unravel_index(yi, (prof.q,) * prof.m), dtype=np.int64), collapsed


def _measure_preimage_reference(col, rng):
    # reference: the (b, x) readout drawn by rng.choice per shot
    prof = col.pub.profile
    probs = (col.amps**2).reshape(-1)
    i = int(rng.choice(probs.size, p=probs / probs.sum()))
    b, *x = np.unravel_index(i, (2,) + (prof.q,) * prof.n)
    return int(b), np.array(x, dtype=np.int64)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


def _violation_reference(key):
    # fidelity of the two full state vectors, from A*s and from u
    pub = key.public
    exact = PublicKey(pub.profile, pub.A, pub.ring.matmul(pub.A, key.s_bits))
    fid = float((_prepare_reference(exact) * _prepare_reference(pub)).sum())
    return math.sqrt(max(0.0, 1.0 - fid * fid))


@pytest.mark.parametrize(
    "name, overrides", [("micro", {}), ("micro3", {}), ("micro-noisy", {}), ("micro", {"n": 2, "m": 4})],
    ids=["micro", "micro3", "micro-noisy", "micro-n2"],
)
def test_prepare_and_measure_match_loop_references(name, overrides):
    # micro-n2 is the only shape here with n > 1, where the order of the x
    # grid and of the bit register index matters
    prof = get_profile(name, **overrides)
    rng = substream(15, "loop-ref", name, prof.n)
    # every reference draws with rng.choice from a copy of the stream: the
    # draws and the streams' states must agree
    for _ in range(5):
        key = gen(prof, rng)
        state = prepare_sampling_state(key.public)
        assert np.array_equal(state.amps, _prepare_reference(key.public))
        for shot in range(20):
            ref = copy.deepcopy(rng)
            col = measure_image(state, rng)
            y_ref, amps_ref = _measure_image_reference(state, ref)
            assert np.array_equal(col.y, y_ref) and np.array_equal(col.amps, amps_ref)
            assert _same_state(rng, ref)
            eq_rng = substream(16, name, shot)
            eq_ref = copy.deepcopy(eq_rng)
            u, d = measure_equation(col, eq_rng)
            u_ref, d_ref = _measure_equation_reference(col, eq_ref)
            assert u == u_ref and np.array_equal(d, d_ref) and _same_state(eq_rng, eq_ref)
            ref = copy.deepcopy(rng)
            b, x = measure_preimage(col, rng)
            b_ref, x_ref = _measure_preimage_reference(col, ref)
            assert b == b_ref and np.array_equal(x, x_ref) and _same_state(rng, ref)
            assert np.array_equal(inv(key, b, col.y), x)


def test_draw_matches_generator_choice():
    # random distributions, some entries zero, on the sizes the simulator meets
    rng = substream(24, "draws")
    for k in (1, 2, 3, 25, 32, 169, 625):
        for i in range(100):
            probs = rng.random(k) * (rng.random(k) < 0.7)
            if not probs.any():
                probs[rng.integers(k)] = 1.0
            ours, theirs = substream(25, k, i), substream(25, k, i)
            assert _draw(_cdf(probs), ours) == int(theirs.choice(k, p=probs / probs.sum()))
            assert _same_state(ours, theirs)


def test_violation_bound_matches_two_state_reference():
    noisy = exact = 0
    for name in ("micro", "micro3", "micro-noisy"):
        rng = substream(17, "bound-ref", name)
        for _ in range(60):
            key = gen(get_profile(name), rng)
            bound = equation_violation_bound(key)
            if key.e.any():
                noisy += 1
                assert bound == pytest.approx(_violation_reference(key), rel=1e-12)
            else:
                exact += 1
                assert bound == 0.0
    assert noisy > 0 and exact > 0
    # no state vector is built, so the bound exists beyond the state guard
    key = gen(get_profile("desk-small"), substream(17, "bound-desk"))
    assert 0.0 <= equation_violation_bound(key) <= 1.0


def test_state_guard():
    prof = get_profile("desk-small")
    key = gen(prof, substream(8, "guard"))
    with pytest.raises(SizeGuardError):
        prepare_sampling_state(key.public)


def test_ideal_prover_matches_simulation_statistics(micro_key):
    prof = micro_key.profile
    q, n, m = prof.q, prof.n, prof.m
    state = prepare_sampling_state(micro_key.public)
    rng = substream(9, "cross")
    shots = 6000
    sim_counts = {}
    for _ in range(shots):
        col = measure_image(state, rng)
        b, x = measure_preimage(col, rng)
        k = (b, tuple(int(v) for v in x), tuple(int(v) for v in col.y))
        sim_counts[k] = sim_counts.get(k, 0) + 1
    ideal = IdealProver(substream(10, "ideal"))
    ideal.new_key(micro_key)
    ideal_counts = {}
    for _ in range(shots):
        y = ideal.next_sample()
        _, b, x = ideal.answer(1)
        k = (b, tuple(int(v) for v in x), tuple(int(v) for v in y))
        ideal_counts[k] = ideal_counts.get(k, 0) + 1
    keys = set(sim_counts) | set(ideal_counts)
    tv = 0.5 * sum(
        abs(sim_counts.get(k, 0) - ideal_counts.get(k, 0)) / shots for k in keys
    )
    assert tv < 0.05


def test_ideal_prover_equations_always_verify(micro_key):
    ideal = IdealProver(substream(11, "ideal-eq"))
    ideal.new_key(micro_key)
    for _ in range(300):
        y = ideal.next_sample()
        _, u, d = ideal.answer(0)
        x0, x1 = claw_from_image(micro_key, y)
        assert u == claw_equation_bit(micro_key.ring, x0, x1, d)


def test_simulated_prover_adapter(micro_key):
    prover = SimulatedProver(substream(12, "adapter"))
    prover.new_key(micro_key.public)
    y = prover.next_sample()
    kind, b, x = prover.answer(1)
    assert kind == "pre"
    assert np.array_equal(inv(micro_key, b, y), x)
