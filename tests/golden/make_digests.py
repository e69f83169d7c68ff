"""Golden sha256 digests of the CLI's outputs, so a change can show its bytes did not move.

The runs are a desk-scale `mfcorr bench` at seeds 0 and 7 and two sweeps over
all 11 method names at levels 0-20 × 3 realizations, one with template
amplitude 0.05 and one with 100 (records.csv and aggregates.csv), `mfcorr pca
--levels 0-20` on each of those records files (every projection and meta
file), and three `mfcorr correlate` runs over all
11 method names (one profile file each): `--normalize --noise-level 12 --seed
4` under each boundary, and a 9-sample template on an 8-sample grid, where no
lag holds the whole template.
The printed stdout of each run is digested too.  Each file's first line, the
`#` comment that describes the run, is hashed apart from the rest, so a
header change is told from a change of the numbers.  The numpy version is
stored beside the digests.

SMALL_RECORDS is a readable records file in full (levels 0, 10 and 20 × 3
realizations × all 11 methods), so a failure shows which figures moved.

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
SMALL_RECORDS = Path(__file__).with_name("records_small.csv")

ALL_METHODS = METHOD_TAGS + tuple(COMBINED_PREFIX + t for t in METHOD_TAGS if t != "classic")

RUNS = {
    "bench-seed0": ["bench", "--desk-scale", "--seed", "0"],
    "bench-seed7": ["bench", "--desk-scale", "--seed", "7"],
    "correlate": ["correlate", "--normalize", "--noise-level", "12", "--seed", "4",
                  "--methods", ",".join(ALL_METHODS)],
    # every lag holds the whole template
    "correlate-valid": ["correlate", "--boundary", "valid", "--normalize", "--noise-level",
                        "12", "--seed", "4", "--methods", ",".join(ALL_METHODS)],
    # a 9-sample template on an 8-sample object: no lag holds the whole template
    "correlate-short-grid": ["correlate", "--grid-n", "8", "--template-width", "6.0",
                             "--methods", ",".join(ALL_METHODS)],
    # every object sample exceeds every template sample: clipped at each template step
    "bench-amp0.05": ["bench", "--levels", "0-20", "--realizations", "3",
                      "--template-amplitude", "0.05", "--methods", ",".join(ALL_METHODS)],
    # no stage-1 object sample reaches a template sample's magnitude: never clipped
    "bench-amp100": ["bench", "--levels", "0-20", "--realizations", "3",
                     "--template-amplitude", "100", "--methods", ",".join(ALL_METHODS)],
}
# run on the records.csv of each bench run, keyed pca-seed<n>
PCA_ARGV = ["pca", "--levels", "0-20"]
SMALL_ARGV = ["bench", "--levels", "0,10,20", "--realizations", "3", "--seed", "0",
              "--methods", ",".join(ALL_METHODS)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str], out_dir: str) -> str:
    """Run mfcorr with --out-dir out_dir; its stdout, the out dir masked."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out-dir", out_dir])
    if code != 0:
        raise RuntimeError(f"mfcorr {' '.join(argv)}: exited with {code}")
    return stdout.getvalue().replace(out_dir, "<out>")


def _add(out: dict[str, str], run: str, stdout: str, out_dir: str) -> None:
    out[f"{run}/stdout"] = _sha256(stdout)
    for path in sorted(p for p in Path(out_dir).iterdir() if p.is_file()):
        header, _, body = path.read_text().partition("\n")
        out[f"{run}/{path.name}:header"] = _sha256(header)
        out[f"{run}/{path.name}:body"] = _sha256(body)


def digests() -> dict[str, str]:
    """Digest of every output of RUNS and of their PCA runs, keyed run/file:part."""
    out: dict[str, str] = {}
    for run, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            _add(out, run, _run(argv, tmp), tmp)
            if argv[0] == "bench":
                pca_dir = str(Path(tmp) / "pca")
                stdout = _run(PCA_ARGV + ["--records", str(Path(tmp) / "records.csv")],
                              pca_dir)
                _add(out, run.replace("bench", "pca"), stdout, pca_dir)
    return out


def small_records() -> str:
    """The records.csv text of SMALL_ARGV."""
    with tempfile.TemporaryDirectory() as tmp:
        _run(SMALL_ARGV, tmp)
        return (Path(tmp) / "records.csv").read_text()


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": digests()},
                                  indent=1, sort_keys=True) + "\n")
    SMALL_RECORDS.write_text(small_records())
    print(f"wrote {DIGESTS} and {SMALL_RECORDS}")
