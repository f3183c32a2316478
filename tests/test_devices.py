import math

import numpy as np
import pytest

from clawrand.devices import (
    SimplifiedDevice,
    azuma_bound,
    bad_subspace,
    branch_weight,
    fan_bound,
    honest_qubit_device,
    jordan_angles,
    lambda_curve,
    operator_norm,
    overlap,
    post_measurement,
    rate_bound,
    unbiased_trace_bound,
)

LOG2_E = math.log2(math.e)


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_projector(rng, d, rank):
    U = haar_unitary(rng, d)
    return U[:, :rank] @ U[:, :rank].conj().T


def test_honest_device_valid_and_overlap_half():
    dev = honest_qubit_device()
    dev.validate()
    assert overlap(dev) == pytest.approx(0.5, abs=1e-9)


def test_overlap_edge_cases():
    dev = honest_qubit_device()
    # never claims valid: M1 = 0
    zero_m1 = SimplifiedDevice(
        phi=dev.phi, Pi0=dev.Pi0, Pi1=dev.Pi1,
        M0=np.eye(2, dtype=complex)[None], K0=dev.K0,
    )
    assert overlap(zero_m1) == pytest.approx(0.0, abs=1e-12)
    # equation measurement aligned with a preimage projector: M1 = Pi0
    aligned = SimplifiedDevice(
        phi=dev.phi, Pi0=dev.Pi0, Pi1=dev.Pi1,
        M0=np.array([[0, 0], [0, 1]], dtype=complex)[None], K0=dev.K0,
    )
    assert overlap(aligned) == pytest.approx(1.0, abs=1e-12)


def test_overlap_unitary_invariance():
    rng = np.random.default_rng(0)
    dev = honest_qubit_device()
    U = haar_unitary(rng, 2)
    rot = SimplifiedDevice(
        phi=np.array([U @ dev.phi[0] @ U.conj().T]),
        Pi0=np.array([U @ dev.Pi0[0] @ U.conj().T]),
        Pi1=np.array([U @ dev.Pi1[0] @ U.conj().T]),
        M0=np.array([U @ dev.M0[0] @ U.conj().T]),
        K0=np.array([U @ dev.K0[0] @ U.conj().T]),
    )
    assert overlap(rot) == pytest.approx(overlap(dev), abs=1e-9)


def test_validate_rejects_noncommuting_K():
    dev = honest_qubit_device()
    bad = SimplifiedDevice(
        phi=dev.phi, Pi0=dev.Pi0, Pi1=dev.Pi1, M0=dev.M0,
        K0=dev.M0.copy(),  # |-><-| does not commute with Pi0
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_jordan_commuting_pair_angles():
    rng = np.random.default_rng(1)
    d = 8
    U = haar_unitary(rng, d)
    diag_p = np.diag([1, 1, 1, 0, 0, 0, 0, 0]).astype(complex)
    diag_m = np.diag([1, 0, 1, 1, 0, 0, 1, 0]).astype(complex)
    P = U @ diag_p @ U.conj().T
    M = U @ diag_m @ U.conj().T
    dec = jordan_angles(P, M)
    for blk in dec.blocks:
        assert blk.cos2 == pytest.approx(0.0, abs=1e-9) or blk.cos2 == pytest.approx(
            1.0, abs=1e-9
        )
    Pr, Mr = dec.reconstruct()
    assert np.abs(Pr - P).max() < 1e-8
    assert np.abs(Mr - M).max() < 1e-8


def test_jordan_45_degrees():
    P = np.array([[1, 0], [0, 0]], dtype=complex)
    M = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    dec = jordan_angles(P, M)
    pairs = [blk for blk in dec.blocks if blk.vectors.shape[1] == 2]
    assert len(pairs) == 1
    assert pairs[0].cos2 == pytest.approx(0.5, abs=1e-12)
    assert pairs[0].theta == pytest.approx(math.pi / 4, abs=1e-9)


@pytest.mark.parametrize("dim,rp,rm", [(8, 3, 4), (16, 5, 9), (32, 11, 7)])
def test_jordan_reconstruction_random(dim, rp, rm):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        P = random_projector(rng, dim, rp)
        M = random_projector(rng, dim, rm)
        dec = jordan_angles(P, M)
        Pr, Mr = dec.reconstruct()
        assert np.abs(Pr - P).max() < 1e-8
        assert np.abs(Mr - M).max() < 1e-8


def test_two_image_device_weights_and_born_sampling():
    import scipy.stats

    from clawrand.protocol import BornDeviceProver

    # second image carries an aligned (bad) equation measurement
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    e0 = np.array([[1, 0], [0, 0]], dtype=complex)
    e1 = np.array([[0, 0], [0, 1]], dtype=complex)
    dev = SimplifiedDevice(
        phi=np.stack([0.7 * plus, 0.3 * e0]),
        Pi0=np.stack([e0, e0]),
        Pi1=np.stack([e1, e1]),
        M0=np.stack([np.eye(2) - plus, e1]),  # image 1: M1 = Pi0, aligned
        K0=np.stack([np.eye(2), np.eye(2)]),
    )
    dev.validate()
    assert overlap(dev) == pytest.approx(1.0)  # the aligned image dominates
    for branch_set in ([(0, 0, e) for e in (0, 1)], [(1, v) for v in (0, 1, 2)]):
        tot = sum(branch_weight(post_measurement(dev, br)) for br in branch_set)
        assert tot == pytest.approx(1.0, abs=1e-12)
    prover = BornDeviceProver(dev, np.random.default_rng(0))
    ys = [prover._pick(prover._yprob) for _ in range(4000)]
    counts = np.bincount(ys, minlength=2)
    assert scipy.stats.chisquare(counts, np.array([0.7, 0.3]) * 4000).pvalue > 0.001


def test_jordan_at_dimension_guard():
    rng = np.random.default_rng(64)
    P = random_projector(rng, 64, 30)
    M = random_projector(rng, 64, 17)
    dec = jordan_angles(P, M)
    Pr, Mr = dec.reconstruct()
    assert np.abs(Pr - P).max() < 1e-8
    assert np.abs(Mr - M).max() < 1e-8
    with pytest.raises(ValueError):
        jordan_angles(random_projector(rng, 65, 10), random_projector(rng, 65, 10))


def test_bad_subspace_edges():
    # perfectly unbiased: all eigenvalues 1/2 -> K = I
    P = np.array([[1, 0], [0, 0]], dtype=complex)
    M = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    K = bad_subspace(P, M, 0.75)
    assert np.abs(K - np.eye(2)).max() < 1e-9
    # aligned: eigenvalues {0, 1} -> K = 0
    K0 = bad_subspace(P, P.copy(), 0.75)
    assert np.abs(K0).max() < 1e-9
    with pytest.raises(ValueError):
        bad_subspace(P, M, 0.5)


def test_bad_subspace_commutes():
    rng = np.random.default_rng(3)
    d = 16
    P = random_projector(rng, d, 7)
    M = random_projector(rng, d, 9)
    K = bad_subspace(P, M, 0.75)
    H = P @ M @ P + (np.eye(d) - P) @ M @ (np.eye(d) - P)
    assert np.abs(K @ H - H @ K).max() < 1e-9
    assert np.abs(K @ P - P @ K).max() < 1e-9


def test_unbiased_trace_bound_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(60):
        d = 8
        P = random_projector(rng, d, int(rng.integers(1, d)))
        M = random_projector(rng, d, int(rng.integers(1, d)))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        phi = np.outer(psi, psi.conj())
        lhs, rhs = unbiased_trace_bound(P, M, phi, omega=0.75)
        assert lhs <= rhs + 1e-9


def test_post_measurement_preserves_trace():
    dev = honest_qubit_device()
    tot = sum(branch_weight(post_measurement(dev, (0, 0, e))) for e in (0, 1))
    assert tot == pytest.approx(1.0, abs=1e-12)
    tot = sum(branch_weight(post_measurement(dev, (1, v))) for v in (0, 1, 2))
    assert tot == pytest.approx(1.0, abs=1e-12)
    tot = sum(
        branch_weight(post_measurement(dev, (0, 1, e, k))) for e in (0, 1) for k in (0, 1)
    )
    assert tot == pytest.approx(1.0, abs=1e-12)


def test_post_measurement_qubit_values():
    dev = honest_qubit_device()
    # |+> measured in the preimage basis: each branch has weight 1/2
    assert branch_weight(post_measurement(dev, (1, 0))) == pytest.approx(0.5)
    assert branch_weight(post_measurement(dev, (1, 1))) == pytest.approx(0.5)
    assert branch_weight(post_measurement(dev, (1, 2))) == pytest.approx(0.0)
    # the equation measurement always accepts
    assert branch_weight(post_measurement(dev, (0, 0, 1))) == pytest.approx(1.0)
    assert branch_weight(post_measurement(dev, (0, 1, 1, 0))) == pytest.approx(1.0)


def test_lambda_curve_values():
    assert lambda_curve(0.75, 0.8) == 0.0
    assert lambda_curve(0.75, 7 / 8) == 0.0
    assert lambda_curve(0.75, 1.0) == pytest.approx(LOG2_E / 32, abs=1e-12)
    with pytest.raises(ValueError):
        lambda_curve(0.4, 0.5)
    with pytest.raises(ValueError):
        lambda_curve(0.75, 1.5)


def test_lambda_curve_smooth_and_convex():
    ts = np.linspace(0.0, 1.0, 401)
    vals = np.array([lambda_curve(0.75, t) for t in ts])
    d2 = np.diff(vals, 2)
    assert d2.min() >= -1e-9  # convex
    # continuous first derivative at the kink
    kink = 7 / 8
    h = 1e-6
    left = (lambda_curve(0.75, kink) - lambda_curve(0.75, kink - h)) / h
    right = (lambda_curve(0.75, kink + h) - lambda_curve(0.75, kink)) / h
    assert abs(left) < 1e-5 and abs(right) < 1e-4


def test_rate_bound_limits():
    full = rate_bound(0.75, gamma=0.0, kappa=0.5, eta=0.0, p_test=0.0, eps=0.0)
    assert full == pytest.approx(lambda_curve(0.75, 1.0))
    less = rate_bound(0.75, gamma=0.05, kappa=0.5, eta=0.1, p_test=0.01, eps=1e-5)
    assert less < full
    with_smoothing = rate_bound(
        0.75, 0.0, 0.5, 0.0, 0.01, 1e-4, N=10**6, delta=2.0**-40
    )
    assert with_smoothing < full


def test_tail_bounds():
    assert azuma_bound(0.0, 100) == 2.0
    assert azuma_bound(0.1, 1000) == pytest.approx(2 * math.exp(-5.0))
    vals = [fan_bound(0.1, 0.2, n) for n in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]
    assert fan_bound(0.2, 0.1, 50) == pytest.approx(
        math.exp(-0.1 * math.asinh(0.2 / 0.02) * 50)
    )


def test_operator_norm():
    assert operator_norm(np.diag([0.3, -0.9])) == pytest.approx(0.9)
