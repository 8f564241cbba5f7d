"""Golden outputs: `verify --suite all` JSON bytes for each family.

A refactor or speedup must leave these bytes unchanged.  The hashes were
recorded from the initial engine and cover every suite of
`--suite all` at the default range.
"""

import hashlib
import io

import pytest

from qmpairs.cli import main

GOLDEN_SHA256 = {
    "I": "a2e8c5a8818f140bc29601d4d8432a557f9ea5473e77070e2e644d7fa96ff538",
    "II": "9eb7caab6cef7b910f603c35acaec2e4a7db88c188992677c87fdada44ff9f49",
    "III": "91f842bea3eef844c6431aec1c650592869e735a24b34d1dc1d08426a995bc27",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_SHA256))
def test_verify_all_json_matches_golden_hash(family):
    out = io.StringIO()
    code = main(["verify", "--suite", "all", "--type", family,
                 "--format", "json"], out=out)
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[family]
