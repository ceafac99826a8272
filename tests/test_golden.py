"""Byte-for-byte CLI output for one spec per family.

The files under ``tests/golden`` hold the stdout of ``cli.main`` for four
commands on seven specs.  Regenerate them only for an intended change of
output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from corpus import GOLDEN_FLAGS
from hinak.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "check": ["check", "--suite", "all", "--report", "json"],
    "qpa": ["quiver", "--format", "qpa"],
    "json": ["quiver", "--format", "json"],
    "ct-module": ["ct-module"],
}

CASES = [(spec, cmd) for spec in GOLDEN_FLAGS for cmd in COMMANDS]


def _stdout(spec: str, cmd: str) -> tuple[int, str]:
    verb, *rest = COMMANDS[cmd]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([verb, *GOLDEN_FLAGS[spec], *rest])
    return code, out.getvalue()


def _path(spec: str, cmd: str) -> Path:
    return GOLDEN / f"{spec}.{cmd}.txt"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec,cmd", CASES)
def test_cli_output_matches_golden(spec, cmd):
    code, out = _stdout(spec, cmd)
    assert code == 0
    assert out.encode() == _path(spec, cmd).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for spec, cmd in CASES:
        code, out = _stdout(spec, cmd)
        if code != 0:
            raise SystemExit(f"{spec} {cmd} exited {code}")
        _path(spec, cmd).write_bytes(out.encode())
