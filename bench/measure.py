"""Runs a workload's sessions, applies the correctness gate and turns the
timings and the trace into the metrics named in BENCHMARK.json.

Timings are taken on a shared machine whose speed drifts: other tenants
slow every CPU-bound step by up to ~40% for tens of seconds at a time, so
raw times from one 20-second run to the next spread by 15-25%.  To see
through that, a fixed calibration kernel that never touches clawrand runs
between sessions.  Each session's speed factor is REFERENCE_S divided by
the mean of the calibrations on either side of it.  The CPU part of every
timed interval is scaled by that factor, and its waiting part is left as
measured.  The end-to-end metrics are therefore times at the speed the
kernel takes REFERENCE_S to run, which is an undisturbed core of the
2.1 GHz Xeon the baseline was taken on.  The raw values are kept in the
results file beside them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracing import Tracer, median_ms, patched
from workloads import WORKLOADS, OpClock, ProverProxy, Session

RUN_PY = Path(__file__).resolve().parent / "run.py"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
REFERENCE_S = 0.0085  # calibrate() on an undisturbed core

_CAL_A = np.random.default_rng(0).integers(0, 13, (160, 32))
_CAL_X = np.random.default_rng(1).integers(0, 13, (64, 32))


def calibrate() -> float:
    """Seconds for a fixed slice of work like the verifier's: small integer
    matrix products mod q, JSON, SHA-256, dicts and an integer loop."""
    t0 = perf_counter()
    for i in range(len(_CAL_X)):
        y = np.mod(_CAL_A @ _CAL_X[i], 13)
        c = np.where(y > 6, y - 13, y)
        text = json.dumps(
            {"y": [int(v) for v in y], "norm": float(np.sqrt((c * c).sum())), "i": i},
            sort_keys=True,
            separators=(",", ":"),
        )
        hashlib.sha256(text.encode()).hexdigest()
        sum({k: k * k for k in range(50)}.values())
    acc = 0
    for i in range(100_000):
        acc += i * i
    return perf_counter() - t0


def scaled(wall, cpu, factor):
    """An interval at reference speed: its CPU part times the speed factor,
    plus the rest, which is time spent waiting.  Works on numbers and on
    numpy arrays."""
    cpu = np.clip(cpu, 0.0, wall)
    return wall - cpu + cpu * factor


class SetupReady(Exception):
    """Raised by a setup probe once its first op is ready, to stop there."""


def probe_setup(name: str, seed: int) -> int:
    """Child side of a setup probe: run session 0 until its first key is
    handed to the prover, then print the monotonic time and the CPU time
    the process had used by then."""

    def ready():
        raise SetupReady(time.monotonic(), process_time())

    try:
        WORKLOADS[name]().run_session(seed, 0, OpClock(), on_ready=ready)
    except SetupReady as done:
        print(f"ready {done.args[0]:.9f} {done.args[1]:.9f}", flush=True)
        return 0
    print("setup probe finished without reaching a first op", file=sys.stderr)
    return 1


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """(raw, at reference speed) seconds from spawning a fresh interpreter
    to its first op being ready, for SETUP_PROBES probes run one after
    another."""
    out = []
    cal = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--probe-setup", "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        wall, cpu = float(fields[1]) - t0, float(fields[2])
        after = calibrate()
        out.append((wall, scaled(wall, cpu, 2 * REFERENCE_S / (cal + after))))
        cal = after
    return out


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) of the nearest-rank percentile."""
    xs = sorted(latencies)
    if not xs:
        return 0.0, 0
    rank = max(1, math.ceil(percentile / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def _src_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "clawrand").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_rev(root):
    if not (root / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root, args) -> dict:
    return {
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
    }


def _run_one(wl, seed, index, tracer=None) -> Session:
    """One timed session, then its gate.  Any exception fails the session."""
    clock = OpClock()
    try:
        if tracer is None:
            session, check = wl.run_session(seed, index, clock)
        else:
            tracer.session, tracer.clock = index, clock
            with patched(tracer, ProverProxy):
                session, check = wl.run_session(seed, index, clock)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        failure = f"{type(exc).__name__}: {exc}"
        return Session(index, wl.ops_per_session, 0, "", failure=failure, traced=tracer is not None)
    session.wall = perf_counter() - clock.start
    session.cpu = process_time() - clock.cpu_start
    session.intervals = clock.intervals()
    if clock.closes:
        session.region = (clock.start, clock.closes[-1])
    session.traced = tracer is not None
    try:
        session.failure = check()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        session.failure = f"gate raised {type(exc).__name__}: {exc}"
    return session


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(sessions, pool, setup, peak_rss_mb, failed, attempted, percentile) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed, and details that explain
    them, the raw values among them.

    Throughput and CPU cost are totals over the sessions and the pooled
    extraction (wall, CPU) that follows them."""
    done = [s for s in sessions if s.ops]
    ops = sum(s.ops for s in done) or 1

    def metrics_at(factor_of, pool_factor, setup_s):
        lat = [
            x for s in done for x in scaled(s.intervals[:, 0], s.intervals[:, 1], factor_of(s)).tolist()
        ]
        tail_s, beyond = tail(lat, percentile)
        busy = sum(scaled(s.wall, s.cpu, factor_of(s)) for s in done) + scaled(*pool, pool_factor)
        metrics = {
            "ops_per_s": ops / busy if done else 0.0,
            "op_p50_ms": _median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "cpu_ms_per_op": (sum(s.cpu * factor_of(s) for s in done) + pool[1] * pool_factor) * 1e3 / ops,
            "ok_ratio": 1.0 - failed / attempted,
            "setup_s": _median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        return metrics, {"percentile": percentile, "samples": len(lat), "beyond": beyond}

    speeds = [s.speed for s in done]
    metrics, op_tail = metrics_at(lambda s: s.speed, _median(speeds), [x[1] for x in setup])
    raw, _ = metrics_at(lambda s: 1.0, 1.0, [x[0] for x in setup])
    details = {
        "fail_ratio": failed / attempted,
        "op_tail": op_tail,
        "raw": raw,
        "speed_factor": {"median": _median(speeds), "min": min(speeds, default=0.0), "max": max(speeds, default=0.0)},
        "setup_probes_s": setup,
    }
    return metrics, details


def per_layer(tracer: Tracer, sessions, verifier_thread: str) -> tuple[dict, dict]:
    """The per-layer metrics from the traced sessions, and a table of every
    span name's calls, total and self time per op.  Span times are raw;
    only the tracing overhead, which compares sessions run at different
    moments, is taken at reference speed."""
    traced = [s for s in sessions if s.traced and s.ops]
    untraced = [s for s in sessions if not s.traced and s.ops]
    ops = sum(s.ops for s in traced) or 1
    durs = tracer.by_name()
    counts = tracer.counts()

    def calls(name):
        return len(durs.get(name, ())) / ops

    def p50(name):
        return median_ms(durs.get(name, ()))

    def ms_per_op(name):
        return sum(durs.get(name, ())) * 1e3 / ops

    def per_op(name):
        return counts.get(name, 0) / ops

    def bits_per_s(path):
        busy = sum(durs.get(f"extract.{path}", ()))
        return counts.get(f"extract.{path}.bits", 0) / busy if busy else 0.0

    def rate(group):
        return _median([s.ops / scaled(s.wall, s.cpu, s.speed) for s in group])

    regions = {s.index: s.region for s in traced if s.region}
    op_time = sum(hi - lo for lo, hi in regions.values())
    engine_self = op_time - tracer.top_level_time(verifier_thread, regions)
    keys = len(durs.get("clawfree.gen", ()))
    traced_rate, untraced_rate = rate(traced), rate(untraced)
    metrics = {
        "trapdoor.invert.reject.calls_per_op": calls("trapdoor.invert.reject"),
        "trapdoor.invert.reject.ms_p50": p50("trapdoor.invert.reject"),
        "trapdoor.invert.accept.calls_per_op": calls("trapdoor.invert.accept"),
        "trapdoor.invert.accept.ms_p50": p50("trapdoor.invert.accept"),
        "trapdoor.exhaustive_invert.calls_per_op": calls("trapdoor.exhaustive_invert"),
        "trapdoor.exhaustive_invert.ms_p50": p50("trapdoor.exhaustive_invert"),
        "trapdoor.gen_trap.ms_p50": p50("trapdoor.gen_trap"),
        "clawfree.gen.calls_per_op": calls("clawfree.gen"),
        "clawfree.gen.ms_p50": p50("clawfree.gen"),
        "clawfree.gen.decodes_per_key": (
            counts.get("clawfree.invert_sample.in.clawfree.gen", 0) / keys if keys else 0.0
        ),
        "clawfree.grade.calls_per_op": calls("clawfree.grade"),
        "clawfree.grade.ms_per_op": ms_per_op("clawfree.grade"),
        "qsim.prepare.calls_per_op": calls("qsim.prepare"),
        "qsim.prepare.ms_p50": p50("qsim.prepare"),
        "qsim.measure.ms_per_op": ms_per_op("qsim.measure"),
        "protocol.prover.ms_per_op": ms_per_op("protocol.prover"),
        "protocol.self.ms_per_op": engine_self * 1e3 / ops,
        "protocol.resamples_per_op": max(0, counts.get("protocol.decode_attempts", 0) - ops) / ops,
        "protocol.to_jsonl.ms_per_op": ms_per_op("protocol.to_jsonl"),
        "protocol.transcript_bytes_per_op": per_op("protocol.transcript_bytes"),
        "wire.frames_per_op": per_op("wire.frames"),
        "wire.bytes_per_op": per_op("wire.bytes"),
        "wire.server.send.ms_per_op": ms_per_op("wire.server.send"),
        "wire.server.recv.ms_per_op": ms_per_op("wire.server.recv"),
        "wire.client.send.ms_per_op": ms_per_op("wire.client.send"),
        "wire.client.recv.ms_per_op": ms_per_op("wire.client.recv"),
        "modq.reduce.calls_per_op": per_op("modq.reduce"),
        "modq.matmul.calls_per_op": per_op("modq.matmul"),
        "extract.dense.bits_per_s": bits_per_s("dense"),
        "extract.fft.bits_per_s": bits_per_s("fft"),
        "trace.overhead_ratio": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
    }
    self_s = tracer.self_times()
    table = {
        name: {
            "calls_per_op": len(d) / ops,
            "ms_per_op": sum(d) * 1e3 / ops,
            "self_ms_per_op": self_s[name] * 1e3 / ops,
        }
        for name, d in sorted(durs.items())
    }
    details = {
        "traced_ops": ops,
        "traced_ops_per_s": traced_rate,
        "untraced_ops_per_s": untraced_rate,
        "speed_factor_median": _median([s.speed for s in traced]),
        "spans": table,
        "counts": counts,
    }
    return metrics, details


def run(spec: dict, args, root, out_dir) -> int:
    env = environment(root, args)
    cls = WORKLOADS[args.workload]
    seed = args.seed
    problems = []
    setup = []
    if not args.trace:
        try:
            setup = measure_setup(args.workload, seed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"setup probe: {exc}")

    # session 0 once untimed: fills the library's caches, and its digest is
    # what the timed session 0 must reproduce
    warm = _run_one(cls(), seed, 0)
    wl = cls()
    tracer = Tracer() if args.trace else None
    sessions: list[Session] = []
    cal = calibrate()
    deadline = perf_counter() + args.seconds
    while True:
        i = len(sessions)
        traced = tracer is not None and i % 2 == 1
        session = _run_one(wl, seed, i, tracer if traced else None)
        after = calibrate()
        session.speed = 2 * REFERENCE_S / (cal + after)
        cal = after
        sessions.append(session)
        if perf_counter() >= deadline and (tracer is None or i >= 1):
            break

    cpu0, t0 = process_time(), perf_counter()
    try:
        if tracer is None:
            pool_check, pool_bits = wl.finish(seed)
        else:
            tracer.session, tracer.clock = -1, None
            with patched(tracer, ProverProxy):
                pool_check, pool_bits = wl.finish(seed)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        message = f"pooled extraction: {type(exc).__name__}: {exc}"
        pool_check, pool_bits = (lambda: message), 0
    pool = (perf_counter() - t0, process_time() - cpu0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if warm.failure:
        problems.append(f"warm-up session: {warm.failure}")
    elif sessions[0].failure is None and sessions[0].digest != warm.digest:
        sessions[0].failure = "the same seed gave a different transcript"
    pool_failure = pool_check()
    if pool_failure:
        problems.append(pool_failure)
    problems += [f"session {s.index}: {s.failure}" for s in sessions if s.failure]
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.attempted for s in sessions if s.failure)

    if tracer is None:
        metrics, details = end_to_end(sessions, pool, setup, peak_rss_mb, failed, attempted, wl.tail_percentile)
        declared = spec["end_to_end"]
    else:
        metrics, details = per_layer(tracer, sessions, wl.verifier_thread)
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    env["loadavg_end"] = list(os.getloadavg())
    details.update(
        sessions=len(sessions),
        digest_session0=sessions[0].digest,
        pooled_extraction_bits=pool_bits,
        problems=problems,
        session_info=[
            dict(s.info, index=s.index, traced=s.traced, ops=s.ops, wall=s.wall, cpu=s.cpu, speed=s.speed)
            for s in sessions
        ],
    )

    print(f"# {args.workload} seed={seed} seconds={args.seconds} trace={args.trace} sessions={len(sessions)}")
    print("env " + json.dumps(env, sort_keys=True))
    if tracer is None:
        print(f"{'metric':24s} {'value':>14s} {'raw':>14s} unit (value: at reference speed)")
        for name, value in metrics.items():
            print(f"{name:24s} {value:14.6g} {details['raw'][name]:14.6g} {units[name]}")
        t = details["op_tail"]
        print(f"{'fail_ratio':24s} {details['fail_ratio']:14.6g} {'':14s} ratio ({failed} of {attempted} ops failed)")
        print(f"op_tail_ms is p{t['percentile']:g} of {t['samples']} ops, {t['beyond']} beyond it")
        f = details["speed_factor"]
        print(f"speed factor: median {f['median']:.3f}, range {f['min']:.3f}-{f['max']:.3f}")
    else:
        for name, value in metrics.items():
            print(f"{name:40s} {value:14.6g} {units[name]}")
        print(f"{'span':32s} {'calls/op':>10s} {'ms/op':>10s} {'self ms/op':>10s}")
        for name, row in details["spans"].items():
            print(f"{name:32s} {row['calls_per_op']:10.4g} {row['ms_per_op']:10.4g} {row['self_ms_per_op']:10.4g}")
    accepted = [s.info["accepted"] for s in sessions if "accepted" in s.info]
    if accepted:
        # the verdict is statistical: it is reported, and recomputed by the gate
        print(f"sessions accepted: {sum(accepted)} of {len(accepted)}")
    for p in problems[:20]:
        print("FAILED " + p)

    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}.spans.csv.gz")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(dict(result, env=env, details=details), indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0
