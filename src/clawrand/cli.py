"""Command-line surface.

Subcommands: keygen, run (protocol1 / protocol2 / single-round), analyze,
extract, serve, connect, profiles.  Every run is keyed by one 64-bit seed;
identical configuration and seed give byte-identical transcripts, locally
and across the socket pair.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 protocol
violation, 5 state-space guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import wire
from .clawfree import (
    gen,
    hardcore_game,
    keypair_to_json,
    moderate_check,
    moderate_fraction_bound,
    parity_tv,
    parity_tv_bound,
    public_key_json_text,
)
from .devices import (
    honest_qubit_device,
    jordan_angles,
    lambda_curve,
    overlap,
    rate_bound,
    unbiased_trace_bound,
)
from .extract import (
    ToeplitzSeed,
    bits_to_hex,
    extract,
    extraction_length,
    hex_to_bits,
    monobit_p,
    runs_p,
)
from .modq import ModRing, SizeGuardError, canonical_json
from .profiles import PROFILES, get_profile
from .protocol import (
    MalformedAnswer,
    prover_catalog,
    run_protocol1,
    run_protocol2,
    simplified_provers,
    single_round_test,
)
from .rngstream import substream
from .trapdoor import measure_decode_radius

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4
EXIT_GUARD = 5

_SINGLE_ROUND_TRIALS = 10000


class ConfigError(Exception):
    pass


def _profile(name: str):
    try:
        return get_profile(name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None


def _ring(profile) -> ModRing:
    """The profile's ring; a print-only profile cannot be run."""
    if not profile.runnable:
        raise ConfigError(f"profile {profile.name!r} is print-only; see `profiles`")
    return profile.ring()


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"{text!r} is not a port in [0, 65535]")
    return value


def _seed(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"{text!r} is not a seed in [0, 2^64)")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also refuses NaN
        raise argparse.ArgumentTypeError(f"{text!r} is not a rate in [0, 1]")
    return value


def _emit(obj, path: str | None = None, stream=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text, file=stream)


# -- subcommands -----------------------------------------------------------


def cmd_keygen(args) -> int:
    profile = _profile(args.profile)
    _ring(profile)
    key = gen(profile, substream(args.seed, "keygen"))
    Path(args.public_out).write_text(public_key_json_text(key.public) + "\n")
    if args.secret_out:
        Path(args.secret_out).write_text(canonical_json(keypair_to_json(key)) + "\n")
    print(f"wrote public key to {args.public_out}" + (f", secret to {args.secret_out}" if args.secret_out else ""))
    return 0


def _build_prover(mode: str, kind: str, seed: int):
    catalog = simplified_provers() if mode == "protocol2" else prover_catalog()
    if kind not in catalog:
        raise ConfigError(f"prover {kind!r} does not play {mode}; known: {sorted(catalog)}")
    return catalog[kind](substream(seed, "prover", kind))


def cmd_run(args) -> int:
    # an option the mode ignores is refused rather than dropped
    if args.mode == "single-round":
        if args.rounds is not None or args.transcript is not None:
            raise ConfigError("--rounds and --transcript apply to protocol1 and protocol2, not single-round")
    elif args.trials is not None:
        raise ConfigError(f"--trials applies to single-round only, not {args.mode}")
    profile = _profile(args.profile)
    _ring(profile)
    if profile.violated():
        print(f"# profile {profile.name!r} violates: {', '.join(profile.violated())}", file=sys.stderr)
    rng = substream(args.seed, "verifier", args.mode)
    prover = _build_prover(args.mode, args.prover, args.seed)
    if args.mode == "single-round":
        report = single_round_test(profile, prover, args.trials or _SINGLE_ROUND_TRIALS, rng)
        _emit(
            {
                "mode": "single-round",
                "profile": profile.name,
                "prover": args.prover,
                "trials": report.trials,
                "rate": report.rate,
                "wilson_99": [report.ci_low, report.ci_high],
                "equation_rate": report.eq_rate,
                "preimage_rate": report.pre_rate,
            },
            args.summary,
        )
        return 0
    run = run_protocol2 if args.mode == "protocol2" else run_protocol1
    tr = run(profile, prover, rng, n_rounds=args.rounds)
    if args.transcript:
        Path(args.transcript).write_text(tr.to_jsonl())
    _emit(tr.summary(), args.summary)
    return 0


def _analyze_moderate(profile, rng) -> dict:
    ring = _ring(profile)
    samples = 2000
    mod = 0
    worst_tv = 0.0
    for _ in range(samples):
        C = ring.uniform(rng, (profile.ell, profile.n))
        if moderate_check(ring, C):
            mod += 1
            dhat = rng.integers(0, 2, size=profile.n, dtype=np.int64)
            if dhat.any():
                worst_tv = max(worst_tv, parity_tv(ring, C, dhat))
    return {
        "samples": samples,
        "moderate_fraction": mod / samples,
        "fraction_bound": moderate_fraction_bound(profile.q, profile.ell, profile.n),
        "max_parity_tv": worst_tv,
        "parity_tv_bound": parity_tv_bound(profile.q, profile.ell, profile.n),
    }


def _analyze_hardcore(profile, rng) -> dict:
    ring = _ring(profile)

    def guesser(A, u, rr):
        return (
            int(rr.integers(0, 2)),
            ring.uniform(rr, profile.n),
            rr.integers(0, 2, size=profile.w, dtype=np.int64),
            int(rr.integers(0, 2)),
        )

    res = hardcore_game(profile, guesser, trials=400, rng=rng)
    return {
        "adversary": "uniform-guess",
        "trials": res.trials,
        "advantage": res.advantage,
        "wilson_99": [res.ci_low, res.ci_high],
        "excluded_rate": res.p_excluded,
    }


def _analyze_devices(profile, rng) -> dict:
    dev = honest_qubit_device()
    worst_rec = 0.0
    lemma_ok = 0
    trials = 50
    for _ in range(trials):
        dim = 16
        U = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        P = U[:, : dim // 2] @ U[:, : dim // 2].conj().T
        V = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        M = V[:, : dim // 3] @ V[:, : dim // 3].conj().T
        dec = jordan_angles(P, M)
        Pr, Mr = dec.reconstruct()
        worst_rec = max(worst_rec, float(np.abs(Pr - P).max()), float(np.abs(Mr - M).max()))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        phi = np.outer(psi, psi.conj())
        lhs, rhs = unbiased_trace_bound(P, M, phi, omega=0.75)
        lemma_ok += int(lhs <= rhs + 1e-9)
    return {
        "honest_qubit_overlap": overlap(dev),
        "jordan_instances": trials,
        "max_reconstruction_error": worst_rec,
        "trace_bound_holds": f"{lemma_ok}/{trials}",
    }


def _analyze_lambda(profile, rng) -> dict:
    omegas = [0.6, 0.75, 0.9]
    ts = [round(0.05 * i, 2) for i in range(21)]
    return {
        "t": ts,
        "curves": {str(w): [lambda_curve(w, t) for t in ts] for w in omegas},
    }


def _analyze_rate(profile, rng) -> dict:
    rows = []
    for eps in (1e-3, 1e-4, 1e-5):
        rows.append(
            {
                "eps": eps,
                "rate": rate_bound(
                    profile.omega, profile.gamma, profile.kappa, profile.eta,
                    profile.p_test, eps,
                ),
            }
        )
    return {
        "note": "rates are up to the analysis' unstated constants (knob c = 1)",
        "omega": profile.omega,
        "rows": rows,
    }


def _analyze_radius(profile, rng) -> dict:
    if not profile.uses_gadget:
        return {"note": "profile inverts exhaustively; no gadget radius"}
    _ring(profile)
    key = gen(profile, rng)
    radius = measure_decode_radius(key.gadget, rng, trials=50)
    return {
        "measured_decode_radius": radius,
        "branch_noise_norm_bound": profile.B_P * profile.m**0.5,
    }


# `analyze --what` names in the order `all` runs them, which fixes the rng draws
_ANALYSES = {
    "moderate": _analyze_moderate,
    "hardcore": _analyze_hardcore,
    "devices": _analyze_devices,
    "lambda": _analyze_lambda,
    "rate": _analyze_rate,
    "radius": _analyze_radius,
}


def cmd_analyze(args) -> int:
    profile = _profile(args.profile)
    rng = substream(args.seed, "analyze", args.what)
    out = {"profile": profile.name}
    for what, analyze in _ANALYSES.items():
        if args.what in (what, "all"):
            out[what] = analyze(profile, rng)
    _emit(out, args.out)
    return 0


def cmd_extract(args) -> int:
    try:
        bits = hex_to_bits(Path(args.input).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not text, or not hex
        print(f"i/o error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    n_in = args.n_in if args.n_in else bits.size
    if n_in > bits.size:
        raise ConfigError(f"asked for {n_in} input bits but file has {bits.size}")
    bits = bits[:n_in]
    n_out = args.n_out if args.n_out else extraction_length(args.rate, n_in)
    if n_out <= 0 or n_out > n_in:
        raise ConfigError(f"output length {n_out} out of range for {n_in} input bits")
    seed = ToeplitzSeed.random(substream(args.seed, "extract"), n_in, n_out)
    out = extract(seed, bits)
    Path(args.output).write_text(bits_to_hex(out) + "\n")
    _emit(
        {
            "n_in": int(n_in),
            "n_out": int(n_out),
            "monobit_p": monobit_p(out),
            "runs_p": runs_p(out),
            "output": args.output,
        }
    )
    return 0


def cmd_serve(args) -> int:
    profile = _profile(args.profile)
    _ring(profile)  # refuse before listening or sending a frame
    stdio = args.transport == "stdio"
    if stdio:
        chan = wire.LineChannel(sys.stdin.buffer, sys.stdout.buffer)
        tr = wire.serve_session(chan, profile, args.mode, args.seed, n_rounds=args.rounds)
    else:
        tr = wire.serve_tcp(
            args.host, args.port, profile, args.mode, args.seed, n_rounds=args.rounds
        )
    if args.transcript:
        Path(args.transcript).write_text(tr.to_jsonl())
    _emit(tr.summary(), stream=sys.stderr if stdio else None)  # stdout carries the frames
    return 0


def cmd_connect(args) -> int:
    stdio = args.transport == "stdio"
    if stdio:
        chan = wire.LineChannel(sys.stdin.buffer, sys.stdout.buffer)
        final = wire.connect_session(chan, args.prover, args.seed)
    else:
        final = wire.connect_tcp(args.host, args.port, args.prover, args.seed)
    _emit(final, stream=sys.stderr if stdio else None)
    return 0


def cmd_profiles(args) -> int:
    profiles = [_profile(args.name)] if args.name else PROFILES.values()
    _emit([p.as_dict() for p in profiles])
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="clawrand", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--profile", default="micro", help="parameter profile name")
        p.add_argument("--seed", type=_seed, default=1, help="64-bit master seed")

    def add_endpoint(p):
        p.add_argument("--transport", default="tcp", choices=["tcp", "stdio"])
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=_port, default=19151)

    p = sub.add_parser("keygen", help="generate a key pair")
    add_common(p)
    p.add_argument("--public-out", required=True)
    p.add_argument("--secret-out", default=None)
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("run", help="run a protocol or the single-round test")
    add_common(p)
    p.add_argument("--mode", default="protocol1", choices=["protocol1", "protocol2", "single-round"])
    p.add_argument("--prover", default="ideal")
    p.add_argument("--rounds", type=_positive_int, default=None, help="override the profile's round count")
    p.add_argument("--trials", type=_positive_int, default=None, help=f"single-round trials (default {_SINGLE_ROUND_TRIALS})")
    p.add_argument("--transcript", default=None, help="JSONL transcript path")
    p.add_argument("--summary", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("analyze", help="statistical and device analyses")
    add_common(p)
    p.add_argument("--what", default="all", choices=[*_ANALYSES, "all"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("extract", help="Toeplitz-hash a hex bit file")
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--n-in", type=_positive_int, default=None)
    p.add_argument("--n-out", type=_positive_int, default=None)
    p.add_argument("--rate", type=_rate, default=0.5, help="min-entropy rate in [0, 1] for the default output length")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("serve", help="host a verifier session")
    add_common(p)
    p.add_argument("--mode", default="protocol1", choices=["protocol1", "protocol2"])
    add_endpoint(p)
    p.add_argument("--rounds", type=_positive_int, default=None)
    p.add_argument("--transcript", default=None)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("connect", help="run a prover against a remote verifier")
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--prover", default="classical-committed")
    add_endpoint(p)
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("profiles", help="list parameter profiles and their violated conditions")
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_profiles)

    return ap


def main(argv=None) -> int:
    # the only environment knob: CLAWRAND_LOG sets the logging level
    logging.basicConfig(
        level=os.environ.get("CLAWRAND_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: exit 2 on a usage error, 0 after --help
        return exc.code
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (wire.WireError, MalformedAnswer) as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except SizeGuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
