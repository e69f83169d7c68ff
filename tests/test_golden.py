"""The CLI's outputs against the golden digests and the small records file in tests/golden/."""

import json

import numpy as np

from golden.make_digests import DIGESTS, SMALL_RECORDS, digests, small_records


def test_outputs_match_golden_digests():
    stored = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(stored["digests"])
    changed = [key for key, digest in stored["digests"].items() if got[key] != digest]
    assert not changed, (
        f"outputs differ from the golden digests: {changed}; the digests were made"
        f" with numpy {stored['numpy']}, this run has numpy {np.__version__}")


def test_small_records_match_committed_file():
    # compared line by line, so a failure shows the rows that moved
    assert small_records().splitlines() == SMALL_RECORDS.read_text().splitlines()
