"""Background PBW engine: rewriting, inverses, determinant, relation grids."""

import itertools
import random
import tracemalloc

import pytest

from qmpairs import mq2
from qmpairs.scalars import q_pow, ONE
from qmpairs.mq2 import (
    QGElement, FullMatrix, generator_full_matrix, qg_inverse_matrix,
    fm_mul, fm_pow, quantum_determinant, quantum_determinant_element,
    check_R, verify_results, verify_pbw_smoke, reduce_word,
    _block_mul, _check_relations, _coproduct_combination, _entry_combination,
    _relation_table, _row_rewrites,
)
from qmpairs.grammar import parse_background

from relation_oracle import check_matrix, entry_products, plain_join

gen = QGElement.generator


def _bad(reports):
    return [r for r in reports if not r.ok()]


def test_directed_rule_examples():
    a, b, c, d = gen("a"), gen("b"), gen("c"), gen("d")
    gap = q_pow(2) - q_pow(-2)
    assert d * a == a * d - (b * c).scale(gap)
    assert b * a == (a * b).scale(q_pow(-2))
    assert c * a == (a * c).scale(q_pow(-2))
    assert c * b == b * c
    assert d * b == (b * d).scale(q_pow(-2))
    assert d * c == (c * d).scale(q_pow(-2))


def test_determinant_inverse_absorption():
    a, b, c, d, di = gen("a"), gen("b"), gen("c"), gen("d"), gen("Di")
    assert a * d * di == QGElement.one() + (b * c * di).scale(q_pow(2))
    # Di is central
    for name in "abcd":
        x = gen(name)
        assert di * x == x * di


def test_primed_copy_commutes():
    for unprimed in "abcd":
        for primed in ("a'", "b'", "c'", "d'", "Di'"):
            assert gen(primed) * gen(unprimed) == \
                gen(unprimed) * gen(primed)


def test_determinant_central_and_unital():
    dq = quantum_determinant_element()
    for name in ("a", "b", "c", "d", "Di"):
        x = gen(name)
        assert dq * x == x * dq
    assert dq * gen("Di") == QGElement.one()
    assert quantum_determinant(generator_full_matrix()) == dq
    assert quantum_determinant(FullMatrix.identity()) == QGElement.one()


def test_displayed_inverse():
    uinv = qg_inverse_matrix()
    b, di = gen("b"), gen("Di")
    assert uinv.e12 == (b * di).scale(-q_pow(-2))
    assert uinv.e11 == gen("d") * di
    u = generator_full_matrix()
    assert u * uinv == FullMatrix.identity()
    assert uinv * u == FullMatrix.identity()
    text = "[[d * Di, -s^-2 * b * Di], [-s^2 * c * Di, a * Di]]"
    assert (uinv.text(), repr(uinv)) == (text, "FullMatrix(%s)" % text)


def test_square_determinant_frozen_values():
    """Frozen engine computation, checked once against a hand expansion.

    The fixed-q determinant of U*U is NOT the square of the determinant;
    matching the parameter to the squared matrix (q -> q^2) makes the
    product formula exact.
    """
    u = generator_full_matrix()
    u2 = u * u
    dq = quantum_determinant_element()
    assert quantum_determinant(u2) != dq * dq
    matched = u2.e11 * u2.e22 - (u2.e12 * u2.e21).scale(q_pow(4))
    assert matched == dq * dq
    # hand-expanded normal form of the matched determinant
    a, b, c, d = gen("a"), gen("b"), gen("c"), gen("d")
    expected = ((a * a * d * d)
                - (a * b * c * d).scale(q_pow(2) + q_pow(-2))
                + (b * b * c * c).scale(q_pow(4)))
    assert matched == expected


def test_check_R_reference_points():
    u = generator_full_matrix()
    uinv = qg_inverse_matrix()
    assert not _bad(check_R(u, 2))
    assert not _bad(check_R(u * u, 4))
    assert not _bad(check_R(uinv, -2))
    assert not _bad(check_R(FullMatrix.identity(), 0))
    # wrong parameter must be detected
    assert _bad(check_R(u, 4))


def test_power_grids():
    reports = verify_results(2)
    assert not _bad(reports)
    params = {r.params.get("n") for r in reports if r.params}
    assert params == {-2, -1, 0, 1, 2}


def test_power_cancellation():
    u = generator_full_matrix()
    uinv = qg_inverse_matrix()
    identity = FullMatrix.identity()
    for n in range(4):
        assert fm_mul(fm_pow(u, n), fm_pow(u, -n, uinv)) == identity
    with pytest.raises(ValueError):
        fm_pow(u, -1)


def test_pbw_order_independence():
    assert not _bad(verify_pbw_smoke(word_count=150, max_length=6, seed=4))


def _skew_word(monkeypatch, target, strategies):
    """Patch reduce_word to add a^9 b^9 c^9 d^9 to the forms that the
    given strategies give the word target; return the (word, strategy)
    of every call, in call order."""
    calls = []

    def skewed(word, strategy="leftmost"):
        calls.append((tuple(word), strategy))
        out = reduce_word(word, strategy)
        if tuple(word) == target and strategy in strategies:
            out[(9, 9, 9, 9)] = ONE
        return out

    monkeypatch.setattr(mq2, "reduce_word", skewed)
    return calls


def _word(report):
    """The letter word that a smoke report names."""
    name = report.relation[len("word "):report.relation.index(":")]
    return () if name == "(empty)" else tuple("abcd".index(x) for x in name)


def _form(word, extra=False):
    """The leftmost normal form of word as a QGElement, plus
    a^9 b^9 c^9 d^9 when extra is set."""
    terms = {key + (0,) * 6: coeff
             for key, coeff in reduce_word(word).items()}
    if extra:
        terms[(9, 9, 9, 9) + (0,) * 6] = ONE
    return QGElement(terms)


# verify_pbw_smoke(word_count=5, max_length=4, seed=7) draws the words
# bd, (empty), (empty), acab, (empty); each skewed word, chosen by value,
# with the draws that name it
SKEWED = {(): [1, 2, 4], (0, 2, 0, 1): [3]}


def _skewed_reports(monkeypatch, target, strategies):
    """The smoke reports with target skewed, checked to be violated at
    exactly the draws of target and nowhere else."""
    _skew_word(monkeypatch, target, strategies)
    reports = verify_pbw_smoke(word_count=5, max_length=4, seed=7)
    assert len(reports) == 5
    draws = SKEWED[target]
    assert [n for n, r in enumerate(reports) if _word(r) == target] == draws
    bad = _bad(reports)
    assert [r.params for r in bad] == [{"n": n} for n in draws]
    assert all((r.suite, r.family) == ("mq2", "mq2") for r in bad)
    return bad


def test_pbw_smoke_reports_disagreeing_strategies(monkeypatch):
    """When the two strategies disagree on one word, every report of that
    word, and no other, is violated, and carries the leftmost and the
    rightmost normal form as monomial texts that parse_background reads
    back."""
    for target in SKEWED:
        left, right = _form(target), _form(target, extra=True)
        for bad in _skewed_reports(monkeypatch, target, ("rightmost",)):
            assert (bad.lhs, bad.rhs) == (left.text(), right.text())
            assert bad.rhs.endswith(" + a^9 * b^9 * c^9 * d^9")
            assert parse_background(bad.lhs) == left
            assert parse_background(bad.rhs) == right


def test_pbw_smoke_reports_agreeing_wrong_form(monkeypatch):
    """When both strategies agree on a form that is not the product of
    the letters, every report of that word carries that form and the
    product's text."""
    for target in SKEWED:
        wrong = _form(target, extra=True)
        product = QGElement.one()
        for letter in target:
            product = product * gen("abcd"[letter])
        for bad in _skewed_reports(monkeypatch, target,
                                   ("leftmost", "rightmost")):
            assert (bad.lhs, bad.rhs) == (wrong.text(), product.text())
            assert parse_background(bad.lhs) == wrong
            assert parse_background(bad.rhs) == product


def test_pbw_smoke_reduces_each_distinct_word_once(monkeypatch):
    """reduce_word runs exactly twice per distinct word, once for each
    strategy, however often the word is drawn."""
    calls = _skew_word(monkeypatch, None, ())
    reports = verify_pbw_smoke()
    assert not _bad(reports)
    words = {_word(report) for report in reports}
    assert len(words) < len(reports)
    assert sorted(calls) == sorted(
        (word, strategy) for word in words
        for strategy in ("leftmost", "rightmost"))


def test_reduce_word_strategies_agree():
    rng = random.Random(23)
    for _ in range(80):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
        assert reduce_word(word, "leftmost") == reduce_word(word, "rightmost")


def _letters(block):
    return sum(((letter,) * exp for letter, exp in enumerate(block)), ())


def test_block_products_match_word_reduction():
    """The block rules against the letter-by-letter oracle, Di-free."""
    rng = random.Random(41)

    def block():
        return tuple(rng.randint(0, 3) for _ in range(4))

    def monomial(unprimed, primed):
        return QGElement({unprimed + (0,) + primed + (0,): 1})

    zero = (0, 0, 0, 0)
    cases = [(block(), block(), zero, zero) for _ in range(200)]
    cases += [(block(), block(), block(), block()) for _ in range(8)]
    for x, y, xp, yp in cases:
        plain = reduce_word(_letters(x) + _letters(y))
        primed = reduce_word(_letters(xp) + _letters(yp))
        expected = {u + (0,) + p + (0,): uc * pc
                    for u, uc in plain.items() for p, pc in primed.items()}
        assert (monomial(x, xp) * monomial(y, yp)).terms == expected, \
            (x, y, xp, yp)


def test_d_free_block_products_match_word_reduction():
    """Block products with no d on the left and up to 40 a's on the right.

    The right block may carry d's and both may carry Di's; Di is central,
    so the oracle is reduce_word on the letters times Di^(m + m').
    """
    rng = random.Random(43)
    cases = [((0, 2, 3, 0, 0), (40, 0, 0, 0, 0)),
             ((5, 0, 0, 0, 2), (30, 1, 0, 0, 0))]
    for _ in range(40):
        x = tuple(rng.randint(0, 3) for _ in range(3)) + (0, rng.randint(0, 2))
        y = (rng.randint(0, 40),) + tuple(rng.randint(0, 3) for _ in range(4))
        cases.append((x, y))
    zero = (0,) * 5
    for x, y in cases:
        plain = reduce_word(_letters(x[:4]) + _letters(y[:4]))
        expected = QGElement({block + (0,) + zero: coeff
                              for block, coeff in plain.items()})
        expected = expected * gen("Di", x[4] + y[4])
        assert QGElement({x + zero: 1}) * QGElement({y + zero: 1}) == \
            expected, (x, y)


def test_d_free_left_block_enters_all_a_at_once():
    """With no d on the left, _block_mul moves every a of the right block
    in one shift; the oracle is reduce_word on the letters."""
    rng = random.Random(47)
    for _ in range(200):
        x = tuple(rng.randint(0, 8) for _ in range(3)) + (0, 0)
        y = tuple(rng.randint(0, 8) for _ in range(4)) + (0,)
        expected = {block + (0,): coeff for block, coeff in
                    reduce_word(_letters(x[:4]) + _letters(y[:4])).items()}
        assert dict(_block_mul(x, y)) == expected, (x, y)


def test_long_power_of_a_is_one_generator_power():
    n = 1_600_000
    assert parse_background("(a)^%d" % n) == gen("a", n)


def test_d_free_large_exponent_is_one_term():
    big = gen("a", 10000)
    assert (big * big).terms == {(20000,) + (0,) * 9: ONE}
    assert (gen("b") * big).terms == \
        {(10000, 1) + (0,) * 8: q_pow(-20000)}


# planted faults: (entry, letters), an extra product of the letters on
# that entry (0..3 for M11, M12, M21, M22)
FAULTS = ((1, "b"), (0, "b"), (2, "c"), (3, "bc"))


def _perturbed(matrix, fault, suffix):
    entry, letters = fault
    extra = QGElement.one()
    for letter in letters:
        extra = extra * gen(letter + suffix)
    entries = list(matrix.entries())
    entries[entry] = entries[entry] + extra
    return FullMatrix(*entries)


def _mixed(n, fault=None):
    """U^n and U'^n, the factors of the mixed matrix U^n U'^n; with a
    fault from FAULTS, its entry of each carries the extra product (of
    primed letters in the primed one)."""
    x = fm_pow(generator_full_matrix(), n, qg_inverse_matrix())
    y = fm_pow(generator_full_matrix(primed=True), n,
               qg_inverse_matrix(primed=True))
    if fault:
        x, y = _perturbed(x, fault, ""), _perturbed(y, fault, "'")
    return x, y


def _table_reports(x, half, tag):
    """The U^n row of verify_results: signed sums of entry products."""
    return _check_relations(_entry_combination(x), half, "mq2", {"n": 0},
                            tag)


def _images(x, half):
    """The rewrites verify_results hands the certificate: those of the
    U^n rows at half that hold."""
    reports = _check_relations(_entry_combination(x), half, "mq2", {}, "")
    return _row_rewrites(reports, half)


def _unformed():
    raise AssertionError("U^n U'^n formed")


def _coproduct_reports(x, mixed, half, tag):
    """The U^n*U'^n row of verify_results: one certificate per row, and
    the entry products of mixed = x * y for a row that it cannot close."""
    return _check_relations(
        _coproduct_combination(_images(x, half), lambda: mixed), half,
        "mq2", {"n": 0}, tag)


def test_coproduct_products_match_direct_products():
    """The coproduct combination's entry products of U^n U'^n against
    the direct ones, and the relation reports against the two-sided
    oracle.

    The relation rows cancel under the certificate; the single products
    do not, and are read from the entry products of x * y.
    """
    for n in range(-3, 4):
        x, y = _mixed(n)
        mixed = x * y
        entries = mixed.entries()
        combination = _coproduct_combination(_images(x, 2 * n), lambda: mixed)
        for i in range(4):
            for k in range(4):
                assert combination([(i, k, ONE)]) == \
                    entries[i] * entries[k], (n, i, k)
        assert combination([(0, 3, ONE), (3, 0, -ONE), (1, 2, q_pow(n))]) \
            == entries[0] * entries[3] - entries[3] * entries[0] \
            + (entries[1] * entries[2]).scale(q_pow(n))
        params = {"n": n}
        assert _check_relations(combination, 2 * n, "mq2", params,
                                "U^n*U'^n: ") == \
            check_matrix(mixed, 2 * n, "mq2", params, tag="U^n*U'^n: ")


def test_coproduct_violation_text_matches_direct_path():
    """At the wrong parameter 2n + 2 both rows carry the oracle's reports,
    violated sides and their texts included."""
    for n in range(-3, 4):
        x, y = _mixed(n)
        half = 2 * n + 2
        mixed = x * y
        factored = _coproduct_reports(x, mixed, half, "U^n*U'^n: ")
        assert factored == check_matrix(mixed, half, params={"n": 0},
                                        tag="U^n*U'^n: ")
        table = _table_reports(x, half, "U^n: ")
        assert table == check_matrix(x, half, params={"n": 0}, tag="U^n: ")
        for reports in (factored, table):
            violated = _bad(reports)
            assert all(r.lhs and r.rhs for r in violated)
            # U^0 is the identity, whose scalar entries obey every Q
            assert bool(violated) == (n != 0), n


def test_relation_table_matches_two_sided_oracle():
    """The signed-sum rows against forming both sides and comparing them,
    for U^n at the right and the wrong parameter, and for check_R."""
    for n in range(-3, 4):
        x, _ = _mixed(n)
        for half in (2 * n, 2 * n + 2):
            want = check_matrix(x, half, "mq2", {"n": 0}, tag="U^n: ")
            assert _table_reports(x, half, "U^n: ") == want, (n, half)
            assert check_R(x, half, "mq2", {"n": 0}, tag="U^n: ") == want


def test_planted_fault_matches_two_sided_oracle():
    """One entry of U^n perturbed (M12 + b, M11 + b, M21 + c, M22 + b*c):
    the table row, check_R and the coproduct row report what the oracle
    reports, violations included.  The faults violate U^n rows, which
    then rewrite no product, so the coproduct rows that do not cancel
    are decided on the entry products of U^n U'^n."""
    for fault, n in itertools.product(FAULTS, range(-3, 4)):
        x, y = _mixed(n, fault)
        table = _table_reports(x, 2 * n, "U^n: ")
        assert table == check_matrix(x, 2 * n, params={"n": 0}, tag="U^n: ")
        assert check_R(x, 2 * n, params={"n": 0}, tag="U^n: ") == table
        mixed = x * y
        factored = _coproduct_reports(x, mixed, 2 * n, "U^n*U'^n: ")
        assert factored == check_matrix(mixed, 2 * n, params={"n": 0},
                                        tag="U^n*U'^n: ")
        # at n = 0, Q = 1 and the identity plus one entry still obeys
        # every relation, its entries commuting
        assert bool(_bad(table)) == bool(_bad(factored)) == (n != 0), \
            (fault, n)


def _random_factor(rng):
    k = rng.randint(-6, 6)
    return rng.choice((ONE, -ONE, q_pow(k), -q_pow(k), q_pow(k) - q_pow(-k)))


def _random_rows(rng, half, count):
    """Signed term lists: the relation rows at half, random lists over the
    16 (x, y) pairs, each with a pair repeated, and each cancelled to
    zero by its own negation."""
    rows = [lhs + [(x, y, -f) for x, y, f in rhs]
            for _, lhs, rhs in _relation_table(half)]
    for _ in range(count):
        terms = [(rng.randrange(4), rng.randrange(4), _random_factor(rng))
                 for _ in range(rng.randint(1, 4))]
        x, y, _ = rng.choice(terms)
        repeated = terms + [(x, y, _random_factor(rng))]
        rows += [terms, repeated,
                 repeated + [(x, y, -f) for x, y, f in repeated]]
    return rows


def test_row_rewrites_are_exact():
    """Each image of _row_rewrites has the reduced value of its symbol,
    on U^n with and without a planted fault, at its own and the wrong
    parameter.  A violated row rewrites nothing, and on the fault-free
    U^n at its own parameter all six rows rewrite and every coproduct
    row cancels without forming U^n U'^n."""
    violated = 0
    for fault, n in itertools.product((None,) + FAULTS, range(-3, 4)):
        x = _mixed(n, fault)[0]
        products = entry_products(x)
        for half in (2 * n, 2 * n + 2):
            reports = _check_relations(_entry_combination(x), half, "mq2",
                                       {}, "")
            images = _row_rewrites(reports, half)
            for sym, image in images.items():
                value = QGElement.zero()
                for basis, coeff in image:
                    value = value + products[basis].scale(coeff)
                assert value == products[sym], (fault, n, half, sym)
            rewritten = [sym for sym, image in images.items()
                         if image != [(sym, ONE)]]
            assert len(rewritten) == sum(r.ok() for r in reports)
            violated += sum(not r.ok() for r in reports)
            if fault is None and half == 2 * n:
                assert sorted(rewritten) == [(1, 0), (2, 0), (2, 1),
                                             (3, 0), (3, 1), (3, 2)]
                assert not _bad(_check_relations(
                    _coproduct_combination(images, _unformed), half, "mq2",
                    {}, ""))
    assert violated


def test_fault_free_grid_never_forms_the_mixed_matrix(monkeypatch):
    """On the fault-free grid the certificate closes every mixed row, so
    U^n U'^n is never formed, and each n reduces the 12 entry products
    of U^n that the relation rows read, each once and no square."""
    real_coproduct, real_entries = _coproduct_combination, _entry_combination
    monkeypatch.setattr(mq2, "_coproduct_combination",
                        lambda images, mixed: real_coproduct(images,
                                                             _unformed))
    reads = []

    class Entry(QGElement):
        __slots__ = ("slot",)

        def __mul__(self, other):
            reads[-1].append((self.slot, other.slot))
            return QGElement.__mul__(self, other)

    def tagged(matrix):
        reads.append([])
        entries = [Entry(entry.terms) for entry in matrix.entries()]
        for slot, entry in enumerate(entries):
            entry.slot = slot
        return real_entries(FullMatrix(*entries))

    monkeypatch.setattr(mq2, "_entry_combination", tagged)
    assert not _bad(verify_results(3))
    read = {(x, y) for _, lhs, rhs in _relation_table(2)
            for x, y, _ in lhs + rhs}
    assert len(read) == 12 and all(x != y for x, y in read)
    assert len(reads) == 7
    assert all(sorted(n_reads) == sorted(read) for n_reads in reads), reads


def test_planted_fault_forms_the_mixed_matrix_once_per_n(monkeypatch):
    """Under a planted fault in U^n and U'^n, every n != 0 has violated
    rows that the certificate cannot close, U'^n, with it U^n U'^n, is
    formed once for that n, and the mixed reports are those of the
    two-sided oracle on U^n U'^n."""
    real_pow = fm_pow
    primed_generator = generator_full_matrix(primed=True)
    formed = []

    def faulty_pow(matrix, n, inverse=None):
        suffix = "'" if matrix == primed_generator else ""
        if suffix:
            formed.append(n)
        return _perturbed(real_pow(matrix, n, inverse), FAULTS[0], suffix)

    monkeypatch.setattr(mq2, "fm_pow", faulty_pow)
    reports = verify_results(3)
    assert formed == [-3, -2, -1, 1, 2, 3]
    assert {r.params["n"] for r in _bad(reports)} == set(formed)
    monkeypatch.undo()
    tag = "U^n*U'^n: "
    for n in (-1, 1):
        x, y = _mixed(n, FAULTS[0])
        assert [r for r in reports if r.relation.startswith(tag)
                and r.params == {"n": n}] == \
            check_matrix(x * y, 2 * n, params={"n": n}, tag=tag)


def test_certificate_join_matches_plain_join():
    """The coproduct combination against the join that expands every
    tensor, as elements, on U^n and on U^n with a planted fault, with
    the rewrites of the U^n rows that hold."""
    rng = random.Random(20261019)
    for n in range(-3, 4):
        for fault in (None,) + FAULTS:
            x, y = _mixed(n, fault)
            plain = plain_join(x)
            for half in (2 * n, 2 * n + 2):
                joined = _coproduct_combination(_images(x, half),
                                                lambda: x * y)
                for terms in _random_rows(rng, half, 4):
                    assert joined(terms) == plain(terms), (n, fault, terms)


def test_planted_fault_at_wrong_parameter_matches_two_sided_oracle():
    """Under each planted fault at the wrong parameter 2n + 2 the
    coproduct row reports what the two-sided oracle reports on the
    direct product, lhs and rhs texts included: the certificate never
    lets a violated row report as holding."""
    violated = 0
    for fault, n in itertools.product(FAULTS, range(-3, 4)):
        x, y = _mixed(n, fault)
        half = 2 * n + 2
        mixed = x * y
        factored = _coproduct_reports(x, mixed, half, "U^n*U'^n: ")
        assert factored == check_matrix(mixed, half, params={"n": 0},
                                        tag="U^n*U'^n: "), (fault, n)
        violated += len(_bad(factored))
    assert violated


def test_background_grid_in_bounded_memory():
    """Each relation is decided from one signed sum, so the range-4 grid
    stays under 3 MB of Python heap once the block cache starts empty."""
    _block_mul.cache_clear()
    tracemalloc.start()
    try:
        reports = list(verify_results.stream(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not _bad(reports)
    assert peak < 3 << 20, peak


def test_element_associativity_sample():
    rng = random.Random(31)
    names = ("a", "b", "c", "d", "Di", "a'", "c'")
    for _ in range(60):
        x = gen(rng.choice(names)) * gen(rng.choice(names))
        y = gen(rng.choice(names))
        z = gen(rng.choice(names)) + QGElement.scalar(rng.randint(-2, 2))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


# Properties of the block product at exponents that reduce_word cannot
# reach.  tau reverses a product and swaps the a and d exponents of each
# block; t keeps the order and swaps the b and c exponents.  Both fix the
# scalars, Di and the quantum determinant, and map normal-form monomials
# to normal-form monomials, so they act on an element slot by slot.


def _swapped(x, first, second):
    """x with the exponents at slots first and second of each block
    exchanged."""
    terms = {}
    for mono, coeff in x.terms.items():
        mono = list(mono)
        for base in (0, 5):
            mono[base + first], mono[base + second] = \
                mono[base + second], mono[base + first]
        terms[tuple(mono)] = coeff
    return QGElement(terms)


def _tau(x):
    return _swapped(x, 0, 3)


def _t(x):
    return _swapped(x, 1, 2)


def _bidegree(mono):
    """Row and column degrees of each block: u_ij has row degree e_i and
    column degree e_j, and Di minus the sum of both."""
    out = ()
    for i, j, k, l, m in (mono[:5], mono[5:]):
        out += (i + j - m, k + l - m, i + k - m, j + l - m)
    return out


def _random_monomial(rng):
    """A normal-form monomial: unprimed exponents up to 12 (Di up to 3),
    and a few primed letters."""
    block = [rng.randint(0, 12) for _ in range(4)] + [rng.randint(0, 3)]
    primed = [rng.randint(0, 1) for _ in range(4)] + [rng.randint(0, 1)]
    for x in (block, primed):
        if x[0] and x[3] and x[4]:
            x[rng.choice((0, 3, 4))] = 0
    return QGElement({tuple(block + primed): 1})


def test_block_product_symmetries_and_bidegree():
    rng = random.Random(47)
    for _ in range(60):
        x, y = _random_monomial(rng), _random_monomial(rng)
        xy = x * y
        assert _tau(xy) == _tau(y) * _tau(x), (x, y)
        assert _t(xy) == _t(x) * _t(y), (x, y)
        (xm,), (ym,) = x.terms, y.terms
        degree = tuple(u + v for u, v in zip(_bidegree(xm), _bidegree(ym)))
        assert {_bidegree(mono) for mono in xy.terms} == {degree}, (x, y)


def test_block_product_associative_and_determinant_central():
    """(xy)z = x(yz), and each block's quantum determinant is central with
    inverse Di: Dq x Di = x."""
    rng = random.Random(53)
    determinants = [(quantum_determinant(generator_full_matrix(primed)),
                     gen("Di'" if primed else "Di"))
                    for primed in (False, True)]
    for _ in range(12):
        x, y, z = (_random_monomial(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z), (x, y, z)
        for dq, di in determinants:
            assert dq * x == x * dq and dq * x * di == x, x


@pytest.mark.parametrize("k", [20, 40])
def test_block_product_properties_at_large_exponents(k):
    """The properties above where d^k takes k/2 entering a's.

    tau fixes each term of d^k a^k, so x = b d^k and y = a^(k/2) c,
    whose tau-images enter k a's into d^(k/2), carry the tau check.
    """
    x, y, z, w = (QGElement({block + (0,) * 5: 1}) for block in (
        (0, 1, 0, k, 0), (k // 2, 0, 1, 0, 0), (0, 0, 0, 1, 1),
        (k // 2, 1, 0, k, 0)))
    xy = x * y
    assert len(xy.terms) == k // 2 + 1
    assert _tau(xy) == _tau(y) * _tau(x)
    assert _t(xy) == _t(x) * _t(y)
    assert xy * z == x * (y * z)
    assert quantum_determinant_element() * w * gen("Di") == w


def test_element_power_and_errors():
    a = gen("a")
    assert a ** 3 == a * a * a
    assert a ** 0 == QGElement.one()
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        gen("b", -2)
    with pytest.raises(ValueError):
        gen("x")


def test_text_rendering():
    assert QGElement.zero().text() == "0"
    assert QGElement.one().text() == "1"
    a, d = gen("a"), gen("d")
    assert (d * a).text() == "(s^-2 - s^2) * b * c + a * d"
    assert (gen("Di") * gen("b")).scale(-q_pow(-2)).text() == \
        "-s^-2 * b * Di"
    assert gen("a'", 2).text() == "a'^2"
