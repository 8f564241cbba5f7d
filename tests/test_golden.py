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
The Type III `theorem2` and `theorem1` grids at range 8, which reach
r^n up to n = 8, were recorded from the engine whose relation families
worked out their two rules on every read.
The two text streams, `--suite all` for Type II and the Type II
`theorem2` grid at range 2, were recorded from the engine that gave each
report its own copy of its params.
The `reduce` outputs, in text and JSON, print dense coefficients: long
background coefficients, digits wider than 64 bits in `(1 + s)^300`,
and the r-polynomials of Type III, held as dicts, in `U1^-7 * U2^5`.
They were recorded from the engine that rendered every scalar through
its sorted term dict and multiplied by a unit monomial as by any other
scalar.  The two Type I mixed-width inputs, a product and a sum whose
operands meet at digit widths 64 and 128, 192 and 128, and 256 and 64,
were recorded from the engine whose wide sum and wide product each
repacked their operands in their own code.
The `modular` outputs, for the words "S T", "T S' T" and the 8-letter
"S T T' S S' T S T", were recorded from the engine whose SL(2, Z) and
background matrices each wrote their own product, equality, hash and
text.
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

# suite -> sha256 of the Type III grid at range 8
TYPE3_RANGE8_SHA256 = {
    "theorem1":
        "e28c60645ed9e46e4f12d40d2e67bd1c6ee7deca80e6e51c074c9f5ab409f110",
    "theorem2":
        "2e2d51570a348ff46c160481fd733294e5d2a28c110d635227b2546fc0637632",
}

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

# (type, expression) -> sha256 of the `reduce` output in text and in JSON
REDUCE_SHA256 = {
    ("mq2", "(a + b + c + d)^7"): (
        "32a172657b4b6d9534aeff90a6ba5c63c07237c231bee35b22bb7c1e1b31c756",
        "39d3c26ddaf92b8fb4b946181218141a176038c3da355794456f9c49e99d19c7"),
    ("mq2", "d^12 * a^12"): (
        "086e8e988a4665256e89ec3fe377fad2a7a2273f03b7f43f8576fa32e6d5b7aa",
        "55c3ccd9e724898b230c9bf8de57866bc079cc4ab7d8449af24cef694d0cc997"),
    ("mq2", "Di^20 * a^20 * d^20"): (
        "89bdd8e61a80f8e57614eb791f43bef78ad832b0af9a52aa59f5c5c354d34f6f",
        "200132ee959b010c46650d1ee3b89659791a2b1a957cdbe76f03ac2104bde62d"),
    ("I", "(1 + s)^300"): (
        "38cc055661dd88a2d18834a2c162f6c9eefdfa48c07190294d3f97edc2b823fc",
        "7eeb83be2d917152e5afb615731bc252d9c8df22523a072c3ce0261b15670371"),
    ("III", "(a1 + s * g2)^30"): (
        "ff1211ea3c13ce4ac0a99286cd575c67134c5ec3504baaf8af7dfcd47e2607e4",
        "f00b125202198613a58a14636124a00c6f2acea55990af735ea28afb933d9a73"),
    ("III", "U1^-7 * U2^5"): (
        "99ffdb10e3b4f6c333bed274f270b7f81e7de65c2b1d2e10d0ff5d18a737541c",
        "daea45ef7cb5dc324f06aa34a8e093f1d6d1fa52c45cae81e003fa77d04b9bc5"),
    ("I", "(1 + 2^70 * s)^3 * (1 + s)^40"): (
        "448e9f2411b596ac4cad9909148ab3f93a299e1e6e8fba9c7ea2edb447a760bd",
        "c34b21d6ff4bd30bc59a694d6c4ea69870cf6492570a7e8a44d6a5106d24413c"),
    ("I", "(1 + 2^70 * s)^3 + (1 + s)^40"): (
        "027c068a853cd5925a3fd2ba5eabc5b577c48003c852b0ad5e2b998687f8283a",
        "d2bf17522374dcbbb0f87157abeee69e2caa4281fcad2051c013da31ceec8c1b"),
}

# (type, word) -> sha256 of the `modular` output in text and in JSON
MODULAR_SHA256 = {
    ("I", "S T"): (
        "eeaabb52cc94853fd5fbcc29eeedffd6a98d18ba1ece599722cbf4a233f0b35b",
        "d258b4b8a014fffbca7d8d6d28dd343f1756f5513ebd8ce5ad792a2b2cf1d37e"),
    ("I", "T S' T"): (
        "806d6677d05b34d5623a2c4b5d918a86e1aaf63c62717d82f3ee08eedf8f0d55",
        "753b2239e020b468add34c3e0f35da06024f485d657a337b0d6f7fdc9a420135"),
    ("I", "S T T' S S' T S T"): (
        "49484fbad32dc5ebd2af26d00f5859a4dc5eaf863c34372cb07894a8ac30cb42",
        "07b20fc5bdceb4f9a28d71435ad4388c3ed31ab5f54c35170d767eff0f0567e0"),
    ("II", "S T"): (
        "8e4841080eee660843ef37e2d14b567f4e0045cdabaac750962a7f400bf8a3cd",
        "3bdf72216e32cfc6208eaef3429c0d164b024405f95a033400a623e3d10387bd"),
    ("II", "T S' T"): (
        "7b98ff76f6b1b38b5aca96535375e400d1ae855a87165ead1a591c3e8d908c2a",
        "2cda68017bd265e9850dc10ac7bbd2c900a86f6bbbe8e46d733acc4fae0a41dd"),
    ("II", "S T T' S S' T S T"): (
        "6853650a8ffe2f06875c685b099eca822145e681bde099d691c7c7a8ecfee210",
        "60446606b587675a0ee8d3a2400a71948b2cb9e71dc01b2dc4f2a433ca3200e6"),
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


@pytest.mark.parametrize("suite", sorted(TYPE3_RANGE8_SHA256))
def test_verify_type3_range8_json_matches_golden_hash(suite):
    digest = _digest(["verify", "--suite", suite, "--type", "III",
                           "--range", "8", "--format", "json"])
    assert digest == TYPE3_RANGE8_SHA256[suite]


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


@pytest.mark.parametrize("family, expression", sorted(REDUCE_SHA256),
                         ids=[" ".join(key) for key in sorted(REDUCE_SHA256)])
def test_reduce_matches_golden_hash(family, expression):
    text, json = REDUCE_SHA256[family, expression]
    argv = ["reduce", "--type", family, expression]
    assert _digest([*argv, "--format", "text"]) == text
    assert _digest([*argv, "--format", "json"]) == json


@pytest.mark.parametrize("family, word", sorted(MODULAR_SHA256),
                         ids=[" ".join(key) for key in sorted(MODULAR_SHA256)])
def test_modular_matches_golden_hash(family, word):
    text, json = MODULAR_SHA256[family, word]
    argv = ["modular", "--type", family, "--word", word]
    assert _digest([*argv, "--format", "text"]) == text
    assert _digest([*argv, "--format", "json"]) == json
