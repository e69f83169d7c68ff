"""The CLI's outputs against the golden digests in tests/golden/."""

import json

import numpy as np

from golden.make_digests import DIGESTS, digests


def test_outputs_match_golden_digests():
    stored = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(stored["digests"])
    changed = [key for key, digest in stored["digests"].items() if got[key] != digest]
    assert not changed, (
        f"outputs differ from the golden digests: {changed}; the digests were made"
        f" with numpy {stored['numpy']}, this run has numpy {np.__version__}")
