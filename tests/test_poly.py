import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from legquad.poly import (
    Polynomial,
    PolyParseError,
    format_poly,
    parse_poly,
)
import poly_oracle
from legquad import catalog
from poly_oracle import coefficient, euler_weighted_sum, evaluate


def test_parse_examples():
    p = parse_poly("x2^2 - x1*x3", 4)
    assert p.terms == {(0, 0, 2, 0): 1, (0, 1, 0, 1): -1}
    assert parse_poly("0", 4).is_zero()
    assert parse_poly("x0*x2 - x1^2 - (x0*x2 - x1^2)", 4).is_zero()


def test_parse_aliases_and_fractions():
    assert parse_poly("y1^2*y2", 6) == parse_poly("x1^2*x2", 6)
    p = parse_poly("1/2*x0^2 - 3/4", 1)
    assert coefficient(p, (2,)) == Fraction(1, 2)
    assert coefficient(p, (0,)) == Fraction(-3, 4)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0 + @", 2)
    assert err.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("x7", 4)
    with pytest.raises(PolyParseError):
        parse_poly("x0 x1", 2)


# Each message and position below is the grammar's contract; "2^3" is an
# error because a number takes no power.
_TOO_LONG = "an integer of 5000 digits is above the limit of 4300"
PARSE_ERRORS = [
    ("2^3", 2, "trailing input", 1),
    ("x0 + @", 2, "expected a coefficient, variable or '('", 5),
    ("x7", 4, "variable index 7 out of range (nvars=4)", 2),
    ("(x0 + x1", 2, "expected ')'", 8),
    ("1/0", 2, "zero denominator", 3),
    ("x0^", 2, "expected an integer", 3),
    ("x0 x1", 2, "trailing input", 3),
    ("(x0)^2^3", 2, "trailing input", 6),
    ("-", 2, "expected a coefficient, variable or '('", 1),
    ("x0*", 2, "expected a coefficient, variable or '('", 3),
    ("3/x0", 2, "expected an integer", 2),
    ("y1^2 - ", 2, "expected a coefficient, variable or '('", 7),
    # integers are ASCII digits: a superscript or an Arabic-Indic digit is not one
    ("x0^\u00b2", 2, "expected an integer", 3),
    ("x\u0663", 4, "expected an integer", 1),
    ("3*\u00b2", 2, "expected a coefficient, variable or '('", 2),
    ("1\u0663*x0", 2, "trailing input", 1),
    # a parenthesised product is bounded before it is expanded
    ("(x0+x1+x2)^1000", 3, "too large to expand: up to 501501 terms times power 1000 exceeds 50000", 10),
    ("(x0+x1)^40*(x0-x1)^40", 2, "too large to expand: up to 1681 terms times power 40 exceeds 50000", 18),
    # an integer past Python's 4300-digit limit on `int` of a string, at each place one is read
    pytest.param("x0^" + "9" * 5000, 2, _TOO_LONG, 3, id="exponent-past-the-digit-limit"),
    pytest.param("9" * 5000 + "*x0", 2, _TOO_LONG, 0, id="coefficient-past-the-digit-limit"),
    pytest.param("x1 - 1/" + "9" * 5000, 2, _TOO_LONG, 7, id="denominator-past-the-digit-limit"),
    pytest.param("x0 + x" + "0" * 5000, 2, _TOO_LONG, 5, id="variable-index-past-the-digit-limit"),
    pytest.param("(x0)^" + "9" * 5000, 2, _TOO_LONG, 5, id="power-past-the-digit-limit"),
]


@pytest.mark.parametrize("text, nvars, message, position", PARSE_ERRORS)
def test_parse_error_messages_and_positions(text, nvars, message, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, nvars)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_print_parse_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        p = _random_poly(rng, nvars=3, max_deg=4)
        assert parse_poly(format_poly(p), 3) == p


def test_partial_derivative_examples():
    assert parse_poly("x2^2 - x1*x3", 4).partial_derivative(2) == parse_poly("2*x2", 4)
    assert parse_poly("x1*x3", 4).partial_derivative(0).is_zero()
    assert parse_poly("y1^2*y2", 6).partial_derivative(1) == parse_poly("2*y1*y2", 6)


def test_evaluate_examples():
    assert evaluate(parse_poly("x0*x3 - x1*x2", 4), [1, 1, 1, 1]) == 0
    assert evaluate(parse_poly("x2^2 - x1*x3", 4), [1, 1, 1, 1]) == 0
    assert evaluate(parse_poly("x2^2 - x1*x3", 4), [0, 1, 2, 3]) == 1
    with pytest.raises(ValueError):
        evaluate(parse_poly("x0", 2), [1])


def test_euler_identity_examples():
    f = parse_poly("y1^3", 2)
    assert euler_weighted_sum(f) == f.scale(3)
    assert euler_weighted_sum(Polynomial.constant(3, 5)).is_zero()
    g = parse_poly("x1*x2*(x1 + x2)", 3)
    assert euler_weighted_sum(g) == g.scale(3)


def test_euler_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        euler_weighted_sum(parse_poly("x0^2 + x1", 2))


def test_euler_identity_randomized():
    rng = random.Random(5)
    for _ in range(120):
        deg = rng.randint(0, 5)
        p = _random_homogeneous(rng, nvars=4, degree=deg)
        assert euler_weighted_sum(p) == p.scale(deg)


def test_ring_axioms_randomized():
    rng = random.Random(23)
    for _ in range(120):
        p = _random_poly(rng, 3, 3)
        q = _random_poly(rng, 3, 3)
        r = _random_poly(rng, 3, 3)
        assert (p + q) * r == p * r + q * r
        i = rng.randrange(3)
        assert (p * q).partial_derivative(i) == (
            p.partial_derivative(i) * q + p * q.partial_derivative(i)
        )
        assert (p + q).partial_derivative(i) == p.partial_derivative(i) + q.partial_derivative(i)


def test_ring_operations_store_what_the_checked_constructor_would():
    """The ring's own results skip the constructor's checks; on random
    polynomials, cancelling ones included, each is still what the checked
    constructor makes of the same terms: nonzero Fractions on exponent
    tuples of length nvars."""
    rng = random.Random(71)
    for _ in range(200):
        p, q = _random_poly(rng, 3, 3), _random_poly(rng, 3, 3)
        k, i = rng.randint(-3, 3), rng.randrange(3)
        results = [p + q, p + (-p), -p, p - q, p * q, p * (q - q), p * k, k * p,
                   p * Fraction(k, 7), p.scale(k), p.partial_derivative(i), p ** 2]
        for r in results:
            assert all(type(c) is Fraction and c != 0 for c in r.terms.values()), r.terms
            assert all(type(m) is tuple and len(m) == 3 for m in r.terms), r.terms
            assert r == Polynomial(3, r.terms)


def test_homogeneous_degree_query():
    assert parse_poly("x0^2 + x1*x2", 3).homogeneous_degree() == 2
    assert parse_poly("x0^2 + x1", 3).homogeneous_degree() is None
    assert Polynomial.zero(3).homogeneous_degree() is None


def _random_poly(rng, nvars, max_deg):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exps) > max_deg:
            continue
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(nvars, terms)


def _random_homogeneous(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        exps = []
        prev = 0
        for c in cuts:
            exps.append(c - prev)
            prev = c
        exps.append(degree - prev)
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    p = Polynomial(nvars, terms)
    return p if p.terms else Polynomial(nvars, {(degree,) + (0,) * (nvars - 1): 1})


@st.composite
def polynomials(draw):
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 6)] * nvars)
    coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return Polynomial(nvars, draw(st.dictionaries(exponents, coefficients, max_size=8)))


@given(polynomials())
def test_format_parse_roundtrip_property(p):
    assert parse_poly(format_poly(p), p.nvars) == p


def _random_text(rng, nvars, depth=0):
    """A random expression of the grammar, with parentheses, powers, aliases
    and fractions, spaced at random."""
    def factor():
        kind = rng.random()
        if kind < 0.2 and depth < 2:
            power = f"^{rng.randint(0, 3)}" if rng.random() < 0.4 else ""
            return f"({_random_text(rng, nvars, depth + 1)}){power}"
        if kind < 0.45:
            num = str(rng.randint(0, 12))
            return num + (f"/{rng.randint(1, 9)}" if rng.random() < 0.3 else "")
        name = f"{rng.choice('xy')}{rng.randrange(nvars)}"
        return name + (f"^{rng.randint(0, 4)}" if rng.random() < 0.3 else "")

    def term():
        return rng.choice(["*", " * ", "*  "]).join(factor() for _ in range(rng.randint(1, 3)))

    text = rng.choice(["", "-", "+ "]) + term()
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", "-", " - ", "+"]) + term()
    return text


def test_parse_matches_sympy_on_random_texts():
    rng = random.Random(41)
    nvars = 3
    xs = sympy.symbols(f"x0:{nvars}")
    names = {f"x{i}": x for i, x in enumerate(xs)}
    for _ in range(200):
        text = _random_text(rng, nvars)
        p = parse_poly(text, nvars)
        expr = sympy.parse_expr(text.replace("^", "**").replace("y", "x"), local_dict=names)
        expected = {m: Fraction(int(c.p), int(c.q))
                    for m, c in sympy.Poly(expr, *xs).terms() if c}
        assert p.terms == expected, text


def _reading(parse, text, nvars):
    """A parser's reading of a text: the terms of its polynomial, in order,
    or the message and position of its error."""
    try:
        p = parse(text, nvars)
    except PolyParseError as exc:
        return str(exc), exc.position
    return list(p.terms.items())


def _assert_reads_as_the_oracle(text, nvars):
    assert _reading(parse_poly, text, nvars) == _reading(poly_oracle.parse_poly, text, nvars), repr(text)


def _relabeled_line(p, rng):
    """p in permuted variables, scaled, its terms in random order, each
    variable written as x or y, spaced at random."""
    perm = list(range(p.nvars))
    rng.shuffle(perm)
    scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
    chunks = []
    for m, c in rng.sample(sorted(p.terms.items()), len(p.terms)):
        c *= scale
        factors = [str(abs(c))] if abs(c) != 1 or not any(m) else []
        for i, e in enumerate(m):
            if e:
                name = f"{rng.choice('xy')}{perm[i]}"
                factors.append(name if e == 1 else f"{name}{rng.choice(['^', ' ^ '])}{e}")
        sign = "-" if c < 0 else "+" if chunks else ""
        chunks.append(sign + rng.choice(["", " "]) + rng.choice(["*", " * "]).join(factors))
    return " ".join(chunks)


def test_parse_matches_the_oracle_on_every_catalog_generator_line(entries):
    """Each generator line of each `legquad catalog NAME` dump, and of three
    seeded relabelings of each generator, reads as the oracle parser reads
    it, terms in the same order."""
    rng = random.Random(37)
    lines = 0
    for entry in entries.values():
        text = catalog.dump_entry(entry)
        nvars = entry.presentation.nvars
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line and not line.startswith(("n=", "form=")):
                _assert_reads_as_the_oracle(line, nvars)
                lines += 1
        for g in entry.presentation.generators:
            for _ in range(3):
                _assert_reads_as_the_oracle(_relabeled_line(g, rng), nvars)
    assert lines > 300


# spaces the grammar skips, Unicode ones included, and characters it refuses
_ODD_SPACES = [" ", "  ", "\t", "\u00a0", "\u2003", "\x0b"]
_STRAY = ["@", ")", "(", "x", "y", "^", "/", "*", "+", "-", "7", "x9", "0"]


def test_parse_matches_the_oracle_on_random_texts_and_their_truncations():
    """Random texts of the grammar, with odd whitespace and stray characters
    put in at random, and every truncation of each: the same polynomial, or
    the same message at the same position."""
    rng = random.Random(43)
    errors = 0
    for _ in range(100):
        text = _random_text(rng, 3)
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(_ODD_SPACES + _STRAY) + text[at:]
        for end in range(len(text) + 1):
            _assert_reads_as_the_oracle(text[:end], 3)
            errors += isinstance(_reading(parse_poly, text[:end], 3), tuple)
    assert errors > 500

