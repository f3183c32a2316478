"""Pinned SHA-256 digests of the demos' stdout.

Each case runs one script under `demos/` as a subprocess, with the
package on PYTHONPATH, and hashes what it printed.  The demos use the
public API end to end on fixed seeds, so a change to that API or to any
outcome it returns shows here.  The digests were taken before the
trapdoor key lost its cached fallback table.  Demo 07 (Toeplitz
extraction, ~8 s) is left out to keep the suite short.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_truncated_gaussians": "3aa42dfab8f2fa24235c190f47899f907a888240bdae840b63c96412d7170c26",
    "02_gadget_trapdoor": "5a6d49fd5c4a4248fb0db8d6466cdf510eab3923411abb0250865554bf615058",
    "03_clawfree_family": "3bdd0f167e1c6218701ed4d4d1ca212ca8075153b47a40125a097a384c9028b1",
    "04_quantum_prover": "d8e61082a9de24f39ec3bd0fb7ad10d151999aaa49618b5ef6e99c1908873e55",
    "05_randomness_protocol": "b9d4390bea5df8ab5887d321f4c29dd58c099bbcfee6a6c03792d5ed5632e0ba",
    "06_device_analysis": "0a8f37179ef462ea1c0765e23f615d8884b7ed069ab4b1217c4469bcec393fe2",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout_pinned(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == DEMOS[name]
