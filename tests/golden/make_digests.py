"""Golden sha256 digests of the CLI's outputs, so a change can show its bytes did not move.

The runs are a desk-scale `mfcorr bench` at seeds 0 and 7 (records.csv and
aggregates.csv) and one `mfcorr correlate --normalize --noise-level 12 --seed 4`
over all 11 method names (one profile file each, and the printed peak
summaries).  Each file's first line, the `#` comment that describes the run,
is hashed apart from the rest, so a header change is told from a change of
the numbers.  The numpy version is stored beside the digests.

Regenerate from the repository root, only on purpose:
    PYTHONPATH=src python tests/golden/make_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from mfcorr.cli import main
from mfcorr.correlate import COMBINED_PREFIX, METHOD_TAGS

DIGESTS = Path(__file__).with_name("digests.json")

ALL_METHODS = METHOD_TAGS + tuple(COMBINED_PREFIX + t for t in METHOD_TAGS if t != "classic")

RUNS = {
    "bench-seed0": ["bench", "--desk-scale", "--seed", "0"],
    "bench-seed7": ["bench", "--desk-scale", "--seed", "7"],
    "correlate": ["correlate", "--normalize", "--noise-level", "12", "--seed", "4",
                  "--methods", ",".join(ALL_METHODS)],
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    """Digest of every output of RUNS, keyed run/file:part (stdout with the out dir masked)."""
    out: dict[str, str] = {}
    for run, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv + ["--out-dir", tmp])
            if code != 0:
                raise RuntimeError(f"{run}: mfcorr exited with {code}")
            out[f"{run}/stdout"] = _sha256(stdout.getvalue().replace(tmp, "<out>"))
            for path in sorted(Path(tmp).iterdir()):
                header, _, body = path.read_text().partition("\n")
                out[f"{run}/{path.name}:header"] = _sha256(header)
                out[f"{run}/{path.name}:body"] = _sha256(body)
    return out


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests()},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
