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

from hinak.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECS = {
    "an-4-2": ["--family", "an", "--n", "4", "--d", "2"],
    "kupisch-a-1223-2": ["--family", "kupisch-a", "--series", "1,2,2,3", "--d", "2"],
    "window-0-3-2": ["--family", "window", "--a", "0", "--b", "3", "--d", "2"],
    "zl-window-3-0-4-2": ["--family", "zl-window", "--l", "3", "--a", "0", "--b", "4", "--d", "2"],
    "selfinj-atilde-3-3-2": ["--family", "selfinj-atilde", "--n", "3", "--l", "3", "--d", "2"],
    "atilde-kupisch-332-2": ["--family", "atilde-kupisch", "--series", "3,3,2", "--d", "2"],
    "tube-trunc-2-2-4": ["--family", "tube-trunc", "--n", "2", "--d", "2", "--trunc", "4"],
}

COMMANDS = {
    "check": ["check", "--suite", "all", "--report", "json"],
    "qpa": ["quiver", "--format", "qpa"],
    "json": ["quiver", "--format", "json"],
    "ct-module": ["ct-module"],
}

CASES = [(spec, cmd) for spec in SPECS for cmd in COMMANDS]


def _stdout(spec: str, cmd: str) -> tuple[int, str]:
    verb, *rest = COMMANDS[cmd]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([verb, *SPECS[spec], *rest])
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
