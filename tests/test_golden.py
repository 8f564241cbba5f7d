"""Golden outputs: `verify` JSON and text bytes that a change must keep.

A refactor or speedup must leave these bytes unchanged.  The hashes were
recorded from the initial engine.  They cover every suite of
`--suite all` at the default range for each family, the Type I and
Type II `theorem2` grids at range 3, where members and their internal
checks are reused across quadruples and twin quadruples share their
verdicts, and the background grid at range 4, whose
mixed rows U^n U'^n with |n| >= 3 are checked through the coproduct.
The background grid at range 5 was recorded from the engine that formed
both sides of every relation before comparing them, and the grid at
range 6 from the engine that expanded every tensor of the coproduct
join, before it grouped them by shared factors.  The grid at range 8
was recorded from the engine that joined the mixed rows group by group,
before they were closed by a certificate from the held U^n rows.  The
Type II `theorem2` grid was recorded from the engine that reduced every
twin quadruple.
The Type III `theorem2` grid at range 4, whose internal parameter r^n
changes from quadruple to quadruple, was recorded from the engine that
checked each member's internal relations once per tag.
The two text streams, `--suite all` for Type II and the Type II
`theorem2` grid at range 2, were recorded from the engine that gave each
report its own copy of its params.
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

THEOREM2_TYPE3_RANGE4_SHA256 = (
    "30f87e36caa7407bb36834211694f6f94d8931257579ed00be0e6f90c6909ee0")

THEOREM2_RANGE3_SHA256 = {
    "I": "65e3b9ab6128216e4bb980be2de27304dc7b44cdf98e9ee629a36492f634ddb5",
    "II": "82242b395e4627d72243839ecf2ec53b262349011417617cd2d3ae64e00013e9",
}

MQ2_RANGE4_SHA256 = (
    "5657f937fda132416395fcc8ac3801acf45adb8d8cb6795077b11dace85958f1")

MQ2_RANGE5_SHA256 = (
    "348818b9cd6f8cdd6b5272d7b556955f65be1a56e5c89d4a0232da612657b612")

MQ2_RANGE6_SHA256 = (
    "894fe5b9038a876972a000fc49ce11dbe808690e8244ceae0d7a9132e0bdff8a")

MQ2_RANGE8_SHA256 = (
    "b3eb0332b27b7acc2e7b694df6d5d10af8fdbf7a837416abd13267dcef64e3ab")

# argv after `verify` -> sha256 of the text output
TEXT_SHA256 = {
    ("--suite", "all", "--type", "II"):
        "61b670220a1786d46d24478e9253a0b5e353fc5a8f7cb1b457ffc86def56c05b",
    ("--suite", "theorem2", "--type", "II", "--range", "2"):
        "d7faf3fb75e971254a792fea3e509fc209c1956e37eb4fceaf4ad6783f4f9e08",
}


def _digest(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("family", sorted(GOLDEN_SHA256))
def test_verify_all_json_matches_golden_hash(family):
    digest = _digest(["verify", "--suite", "all", "--type", family,
                           "--format", "json"])
    assert digest == GOLDEN_SHA256[family]


def test_verify_theorem2_range3_json_matches_golden_hash():
    digest = _digest(["verify", "--suite", "theorem2", "--type", "I",
                           "--range", "3", "--format", "json"])
    assert digest == THEOREM2_RANGE3_SHA256["I"]


def test_verify_theorem2_type2_range3_json_matches_golden_hash():
    digest = _digest(["verify", "--suite", "theorem2", "--type", "II",
                           "--range", "3", "--format", "json"])
    assert digest == THEOREM2_RANGE3_SHA256["II"]


def test_verify_theorem2_type3_range4_json_matches_golden_hash():
    digest = _digest(["verify", "--suite", "theorem2", "--type", "III",
                           "--range", "4", "--format", "json"])
    assert digest == THEOREM2_TYPE3_RANGE4_SHA256


def test_verify_mq2_range4_json_matches_golden_hash():
    digest = _digest(["verify", "--suite", "mq2", "--range", "4",
                           "--format", "json"])
    assert digest == MQ2_RANGE4_SHA256


def test_verify_mq2_range5_json_matches_golden_hash():
    digest = _digest(["verify", "--suite", "mq2", "--range", "5",
                           "--format", "json"])
    assert digest == MQ2_RANGE5_SHA256


def test_verify_mq2_range6_json_matches_golden_hash():
    digest = _digest(["verify", "--suite", "mq2", "--range", "6",
                           "--format", "json"])
    assert digest == MQ2_RANGE6_SHA256


def test_verify_mq2_range8_json_matches_golden_hash():
    digest = _digest(["verify", "--suite", "mq2", "--range", "8",
                           "--format", "json"])
    assert digest == MQ2_RANGE8_SHA256


@pytest.mark.parametrize("argv", sorted(TEXT_SHA256), ids=" ".join)
def test_verify_text_matches_golden_hash(argv):
    digest = _digest(["verify", *argv, "--format", "text"])
    assert digest == TEXT_SHA256[argv]
