"""Pinned SHA-256 digests of CLI output.

Each case runs `cli.main` in-process and hashes what it printed to
stdout (for `extract`, together with the file it wrote).  The digests were
taken before the CLI's options and the profile schema were restated once
each.  A change that only restructures the CLI or the profiles must leave
every digest as it is; a change that alters one is a change of output and
must say so.  `--help` text depends on argparse's wrapping, so COLUMNS is
fixed at 80; its layout also differs between Python minor versions, and
these digests were taken on Python 3.11.
"""

import hashlib

import pytest

from clawrand import cli

# 2400 fixed input bits for `extract`, as 600 hex digits
_HEX_INPUT = hashlib.shake_256(b"clawrand cli golden input").hexdigest(300)

CASES = {
    "profiles": (
        ["profiles"],
        "4f4eea7ec619852f77acf63fc9946cd6cbe0c77a75320c66fdfc251b7f5a3269",
    ),
    "analyze-all-desk-small": (
        ["analyze", "--what", "all", "--profile", "desk-small", "--seed", "7"],
        "fd31be9d4727cddd6ef2fc4c17f2abd4d47a7bdc4e04b504338078b89125f24a",
    ),
    "analyze-rate-full-scale": (
        ["analyze", "--what", "rate", "--profile", "full-scale"],
        "4746a9a8d34782165464d08fdf131e9003c46b7522be84b5b6d947781b673ec6",
    ),
    "extract-default-length": (
        ["extract", "--seed", "3", "--input", "in.hex", "--output", "out.hex"],
        "3b25c5e837f4b12f4ffd3039b3824b50a180f031fd6d7c614c278232efc6b789",
    ),
    "help-analyze": (
        ["analyze", "--help"],
        "24798e2c6f6a53a66ef4b8468540fe8b1673301ce90b2218ec59f91c0ecf267f",
    ),
    "help-serve": (
        ["serve", "--help"],
        "f7985a18103963e77a98599cd7adc4ca75e938907ce9ba7447d8f91e11f8a854",
    ),
    "help-connect": (
        ["connect", "--help"],
        "d26757715b1ab674f170725896f1350e22f32b1b393a99bb0f07986d1e7f7cd8",
    ),
}


def cli_digest(name, tmp_path, monkeypatch, capsys) -> str:
    argv, _ = CASES[name]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # `extract` prints its output path
    (tmp_path / "in.hex").write_text(_HEX_INPUT + "\n")
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "extract":
        out += (tmp_path / "out.hex").read_text()
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path, monkeypatch, capsys):
    assert cli_digest(name, tmp_path, monkeypatch, capsys) == CASES[name][1]
