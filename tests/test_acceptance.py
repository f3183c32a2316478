"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them inline).

Tolerances are pinned here, not configurable.  Every stochastic check runs
from a fixed named substream, so the suite is deterministic end to end.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from clawrand import wire
from clawrand.clawfree import (
    chk,
    claw_equation_bit,
    claw_from_image,
    claw_partner,
    density_public,
    density_secret,
    gen,
    inv,
    moderate_check,
    parity_tv_many,
    secret_mask,
)
from clawrand.devices import (
    honest_qubit_device,
    jordan_angles,
    lambda_curve,
    overlap,
    unbiased_trace_bound,
)
from clawrand.extract import ToeplitzSeed, extract, monobit_p, runs_p
from clawrand.gaussians import TruncGaussian, hellinger_sq, shifted_hellinger_bound
from clawrand.modq import ModRing
from clawrand.profiles import get_profile
from clawrand.protocol import CommittedPreimageProver, run_protocol1, single_round_test
from clawrand.qsim import IdealProver, measure_equation, measure_image, measure_preimage, prepare_sampling_state
from clawrand.rngstream import substream
from clawrand.trapdoor import OVER_BOUND, gen_trap, invert


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_gaussian_normalization():
    worst = 0.0
    for q in (5, 7, 13, 61):
        for B in (1.0, 2.0, math.sqrt(q), q / 3):
            total = TruncGaussian(ModRing(q), B).density_table().sum()
            worst = max(worst, abs(total - 1.0))
    report(1, "gaussian normalization", worst <= 1e-12, f"worst |sum-1| = {worst:.2e}")


def test_02_shifted_gaussian_lemma():
    # Shifts are drawn with every coordinate inside the width (the regime
    # where the distance lemma is actually provable: once a coordinate
    # shift clears the support entirely, H^2 = 1 beats any such bound).
    rng = substream(2026, "acc", "shifted")
    violations = 0
    for _ in range(200):
        q = int(rng.choice([5, 7, 11, 13]))
        m = int(rng.integers(1, 4))
        B = float(rng.uniform(1.0, (q - 1) / 2))
        e_c = rng.integers(-int(B), int(B) + 1, size=m)
        ring = ModRing(q)
        e = ring.reduce(e_c)
        norm = ring.norm(e)
        dist = TruncGaussian(ring, B)
        h2 = hellinger_sq(dist, e)
        bound = shifted_hellinger_bound(m, norm, B)
        if h2 > bound + 1e-12:
            violations += 1
        table = dist.density_table()
        f = np.array([1.0])
        g = np.array([1.0])
        xs = np.arange(q)
        for i in range(m):
            f = np.multiply.outer(f, table[xs]).reshape(-1)
            g = np.multiply.outer(g, table[np.mod(xs - e[i], q)]).reshape(-1)
        if 0.5 * np.abs(f - g).sum() > math.sqrt(max(0.0, 2 * h2)) + 1e-12:
            violations += 1
    report(2, "shifted-gaussian distance lemma", violations == 0, f"{violations} violations in 200 draws")


def _round_trip_fails(key, s, e, bound):
    """How many rows of the secrets s and noise e do not decode back to
    exactly (s, e), their images decoded as one stack."""
    ring = key.ring
    S, E, path = invert(key, ring.reduce(ring.matmul(s, key.A.T) + e), max_norm=bound)
    return int(((path >= OVER_BOUND) | (S != s).any(axis=1) | (E != e).any(axis=1)).sum())


def test_03_trapdoor_roundtrip():
    ring = ModRing(13)
    rng = substream(2026, "acc", "trapdoor")
    key = gen_trap(ring, 1, 5, rng)
    # every s with every ternary noise, as one stack
    s = np.repeat(np.arange(13), 3**5)[:, None]
    e = np.tile(list(itertools.product([-1, 0, 1], repeat=5)), (13, 1))
    total = len(s)
    fails = _round_trip_fails(key, s, e, math.sqrt(5))
    exhaustive_ok = fails == 0

    prof = get_profile("desk-small")
    key2 = gen_trap(ring, prof.n, prof.m, rng)
    noise = TruncGaussian(ring, prof.B_P)
    bound = prof.B_P * math.sqrt(prof.m)
    draws = [(ring.uniform(rng, prof.n), ring.centered(noise.sample_vec(rng, prof.m))) for _ in range(10_000)]
    s, e = (np.array(v) for v in zip(*draws))
    sampled_fails = _round_trip_fails(key2, s, e, bound)
    report(
        3,
        "trapdoor round-trip",
        exhaustive_ok and sampled_fails == 0,
        f"exhaustive fails={fails}/{total}, sampled fails={sampled_fails}/10000",
    )


def test_04_clawfree_conditions_micro():
    prof = get_profile("micro")
    key = gen(prof, substream(2026, "acc", "micro"))
    xs = np.indices((prof.q,) * prof.n).reshape(prof.n, -1).T
    ys = np.indices((prof.q,) * prof.m).reshape(prof.m, -1).T
    problems = []
    for b in (0, 1):
        supports = []
        for x in xs:
            supports.append({tuple(y) for y in ys if density_secret(key, b, x, y) > 0})
        for i, j in itertools.combinations(range(len(xs)), 2):
            if supports[i] & supports[j]:
                problems.append(f"supports of x={xs[i]} and x={xs[j]} overlap at b={b}")
    for x0 in xs:
        x1 = claw_partner(key, 0, x0)
        matched = all(
            density_secret(key, 0, x0, y) == pytest.approx(density_secret(key, 1, x1, y), abs=1e-15)
            for y in ys
        )
        if not matched:
            problems.append(f"claw through {x0} does not match densities")
    for b in (0, 1):
        for x in xs:
            for y in ys:
                in_supp = density_public(key.public, b, x, y) > 0
                if chk(key.public, b, x, y) != int(in_supp):
                    problems.append(f"chk mismatch at b={b} x={x} y={y}")
                if in_supp:
                    if not np.array_equal(inv(key, b, y), x):
                        problems.append(f"inversion wrong at b={b} x={x} y={y}")
    report(4, "claw-free conditions at micro scale", not problems, "; ".join(problems[:3]))


def test_05_hardcore_bit_algebra():
    ring = ModRing(5)
    n, k = 2, 3
    xs = np.indices((5, 5)).reshape(2, -1).T
    violations = 0
    for b in (0, 1):
        for x in xs:
            for d_int in range(2 ** (n * k)):
                d = np.array([(d_int >> i) & 1 for i in range(n * k)], dtype=np.int64)
                mask = secret_mask(ring, b, x, d)
                for s_int in range(4):
                    s = np.array([s_int & 1, (s_int >> 1) & 1], dtype=np.int64)
                    partner = ring.reduce(x - (-1) ** b * s)
                    lhs = claw_equation_bit(ring, x, partner, d)
                    if lhs != int(mask @ s) % 2:
                        violations += 1
    report(5, "hardcore-bit mask identity", violations == 0, f"{violations} violations over all 12800 tuples")


def test_06_moderate_matrix_statistics():
    q, ell, n = 5, 1, 16
    ring = ModRing(q)
    rng = substream(2026, "acc", "moderate")
    frac_bound = 1 - q**ell * 2.0 ** (-n / 8)
    tv_bound = q ** (ell / 2) * 2.0 ** (-n / 40)
    moderate = 0
    worst_tv = 0.0
    for _ in range(10_000):
        C = ring.uniform(rng, (ell, n))
        if not moderate_check(ring, C):
            continue
        moderate += 1
        dhats = rng.integers(0, 2, size=(50, n), dtype=np.int64)
        for row in dhats:
            while not row.any():
                row[:] = rng.integers(0, 2, size=n, dtype=np.int64)
        worst_tv = max(worst_tv, float(parity_tv_many(ring, C, dhats).max()))
    frac = moderate / 10_000
    ok = frac >= frac_bound and worst_tv <= tv_bound
    report(
        6,
        "moderate-matrix statistics",
        ok,
        f"fraction {frac:.4f} >= {frac_bound:.2f}; max TV {worst_tv:.4f} <= {tv_bound:.3f} "
        "(both stated bounds are vacuous at this size and computed as written)",
    )


def test_07_quantum_completeness():
    prof = get_profile("micro")
    key = gen(prof, substream(2026, "acc", "qc-key"))
    state = prepare_sampling_state(key.public)
    rng = substream(2026, "acc", "qc-shots")
    eq_fails = 0
    for _ in range(10_000):
        col = measure_image(state, rng)
        u, d = measure_equation(col, rng)
        x0, x1 = claw_from_image(key, col.y)
        eq_fails += int(u != claw_equation_bit(key.ring, x0, x1, d))
    bs = []
    for _ in range(10_000):
        col = measure_image(state, rng)
        b, _ = measure_preimage(col, rng)
        bs.append(b)
    pval = scipy.stats.chisquare(np.bincount(bs, minlength=2)).pvalue

    prot = get_profile("desk-protocol")
    assert (prot.N, prot.p_test, prot.gamma) == (1000, 0.05, 0.05)
    prover = IdealProver(substream(2026, "acc", "qc-prover"))
    tr = run_protocol1(prot, prover, substream(2026, "acc", "qc-verifier"))
    rate = tr.test_passes / max(1, tr.test_count)
    ok = eq_fails == 0 and pval > 0.001 and tr.accepted and rate >= 0.99
    report(
        7,
        "quantum completeness",
        ok,
        f"equation shots 10000/{10000 - eq_fails} exact; preimage chi2 p={pval:.3f}; "
        f"protocol accepted={tr.accepted} pass-rate={rate:.4f}",
    )


def test_08_classical_gap():
    prof = get_profile("desk-protocol")
    committed = CommittedPreimageProver(substream(2026, "acc", "gap-classical"))
    rep_c = single_round_test(prof, committed, 10_000, substream(2026, "acc", "gap-cv"))
    ideal = IdealProver(substream(2026, "acc", "gap-ideal"))
    rep_i = single_round_test(prof, ideal, 10_000, substream(2026, "acc", "gap-iv"))
    ok = abs(rep_c.rate - 0.75) <= 0.02 and rep_i.rate >= 0.98 and rep_c.rate < rep_i.rate
    report(
        8,
        "classical gap",
        ok,
        f"committed rate {rep_c.rate:.4f} (|.-0.75| <= 0.02), ideal rate {rep_i.rate:.4f} >= 0.98",
    )


def test_09_device_analysis():
    dev = honest_qubit_device()
    ov = overlap(dev)
    ov_ok = abs(ov - 0.5) <= 1e-9
    lam_ok = abs(lambda_curve(0.75, 1.0) - math.log2(math.e) / 32) <= 1e-12
    zero_ok = all(lambda_curve(0.75, t) == 0.0 for t in np.linspace(0, 7 / 8, 50))
    rng = substream(2026, "acc", "devices")
    worst = 0.0
    lemma_fails = 0
    for _ in range(100):
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        U = np.linalg.qr(z)[0]
        P = U[:, : int(rng.integers(1, 15))]
        P = P @ P.conj().T
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        V = np.linalg.qr(z)[0]
        M = V[:, : int(rng.integers(1, 15))]
        M = M @ M.conj().T
        dec = jordan_angles(P, M)
        Pr, Mr = dec.reconstruct()
        worst = max(worst, float(np.abs(Pr - P).max()), float(np.abs(Mr - M).max()))
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        lhs, rhs = unbiased_trace_bound(P, M, np.outer(psi, psi.conj()), omega=0.75)
        lemma_fails += int(lhs > rhs + 1e-9)
    ok = ov_ok and lam_ok and zero_ok and worst <= 1e-8 and lemma_fails == 0
    report(
        9,
        "device analysis",
        ok,
        f"overlap={ov:.10f}; lambda checks {lam_ok and zero_ok}; "
        f"jordan max err={worst:.2e}; angle-lemma fails={lemma_fails}/100",
    )


def test_10_extractor():
    n_in, n_out = 8, 4
    seeds = np.array(
        [[(s >> i) & 1 for i in range(n_in + n_out - 1)] for s in range(2 ** (n_in + n_out - 1))]
    )
    idx = np.arange(n_out)[:, None] - np.arange(n_in)[None, :] + n_in - 1
    mats = seeds[:, idx]
    worst_collisions = 0
    for diff_int in range(1, 2**n_in):
        diff = np.array([(diff_int >> i) & 1 for i in range(n_in)])
        collisions = int((((mats @ diff) & 1).sum(axis=1) == 0).sum())
        worst_collisions = max(worst_collisions, collisions)
    undetected = worst_collisions <= seeds.shape[0] // 2**n_out

    prof = get_profile("micro", p_test=0.02, gamma=0.6, N=208_000)
    prover = IdealProver(substream(2026, "acc", "ext-prover"))
    tr = run_protocol1(prof, prover, substream(2026, "acc", "ext-verifier"))
    bits = np.array(tr.output_bits, dtype=np.int64)
    need = 2 * (100_000 + 80)
    assert bits.size >= need, f"harvested only {bits.size} bits"
    seed = ToeplitzSeed.random(substream(2026, "acc", "ext-seed"), need, 100_000)
    out = extract(seed, bits[:need])
    p_mono = monobit_p(out)
    p_runs = runs_p(out)
    ok = undetected and p_mono > 0.001 and p_runs > 0.001
    report(
        10,
        "extractor",
        ok,
        f"max collision weight {worst_collisions}/{seeds.shape[0]} (<= 1/16); "
        f"monobit p={p_mono:.3f}, runs p={p_runs:.3f} on 1e5 extracted bits",
    )


def test_11_determinism_interop():
    profile = get_profile("micro")
    seed = 2026
    local_a = run_protocol1(
        profile,
        CommittedPreimageProver(substream(seed, "prover", "classical-committed")),
        substream(seed, "verifier", "protocol1"),
        n_rounds=60,
    ).to_jsonl()
    local_b = run_protocol1(
        profile,
        CommittedPreimageProver(substream(seed, "prover", "classical-committed")),
        substream(seed, "verifier", "protocol1"),
        n_rounds=60,
    ).to_jsonl()

    import threading

    holder = {}
    ready = threading.Event()

    def cb(port):
        holder["port"] = port
        ready.set()

    th = threading.Thread(
        target=lambda: holder.__setitem__(
            "tr",
            wire.serve_tcp("127.0.0.1", 0, profile, "protocol1", seed, 60, cb),
        )
    )
    th.start()
    assert ready.wait(10)
    wire.connect_tcp("127.0.0.1", holder["port"], "classical-committed", seed)
    th.join(30)
    remote = holder["tr"].to_jsonl()
    ok = local_a == local_b and remote == local_a
    report(
        11,
        "determinism and socket interop",
        ok,
        f"local repeat identical={local_a == local_b}, socket identical={remote == local_a}",
    )
