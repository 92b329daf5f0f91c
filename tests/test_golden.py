"""Golden CLI transcripts, replayed byte for byte.

Each case runs one command through `cli.main` in a scratch directory and
compares its stdout, and the file it emits, with tests/golden/<case>.out
and tests/golden/<case>.json.  The cases need no LAPACK call, so their
bytes are the same on any machine; `verify` keeps each status line but
masks the metric and the seconds, which are float and timing output.

After a deliberate change to one of these outputs, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and name the transcripts that changed in the change's notes.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from iharalab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> argv; "{out}" stands for the emitted file's name
CASES = {
    "graph_petersen": ["graph", "PETERSEN"],
    "nbt_petersen": ["nbt", "PETERSEN", "--m-max", "12"],
    "nbt_k4_f": ["nbt", "K4", "--what", "f"],
    "nbt_k4_ttilde": ["nbt", "K4", "--what", "ttilde"],
    "oracle_petersen": ["oracle", "PETERSEN", "--m-max", "6"],
    "zeta_k4": ["zeta", "K4", "--order", "8"],
    "cuspgen_13_5": ["cuspgen", "--p", "13", "--q", "5", "--order", "6"],
    "cuspgen_29_5": ["cuspgen", "--p", "29", "--q", "5", "--order", "6"],
    "huang_petersen": ["huang", "PETERSEN"],
    "huang_cube": ["huang", "CUBE"],
    "verify_k4": ["verify", "--graph", "K4", "--checks", "oracle,ihara-bass,huang"],
    "verify_x135": ["verify", "--lps", "13,5", "--checks", "cusp,phi"],
    "graph_k4_emit": ["graph", "K4", "--emit", "{out}"],
    "lps_13_5_emit": ["lps", "--p", "13", "--q", "5", "--emit", "{out}"],
}

_METRIC = re.compile(r"metric=\S+")
_SECONDS = re.compile(r"\(\S+s\)$", re.M)


def transcript(case: str, workdir: Path) -> tuple[str, bytes | None]:
    """(stdout, emitted file bytes or None) of one case, run inside workdir."""
    out_name = f"{case}.json"
    argv = [out_name if a == "{out}" else a for a in CASES[case]]
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            main(argv)
    finally:
        os.chdir(cwd)
    text = buf.getvalue()
    if argv[0] == "verify":
        text = _SECONDS.sub("(*s)", _METRIC.sub("metric=*", text))
    emitted = workdir / out_name
    return text, emitted.read_bytes() if emitted.exists() else None


@pytest.mark.parametrize("case", sorted(CASES))
def test_transcript_replays(case, tmp_path):
    text, emitted = transcript(case, tmp_path)
    assert text == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    golden_file = GOLDEN / f"{case}.json"
    assert emitted == (golden_file.read_bytes() if golden_file.exists() else None)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            text, emitted = transcript(case, Path(tmp))
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
        if emitted is not None:
            (GOLDEN / f"{case}.json").write_bytes(emitted)
        print(f"wrote {case}")


if __name__ == "__main__":
    sys.exit(regenerate())
