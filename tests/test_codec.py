"""Properties of `legquad.poly.MonomialCodec`: the packed monomial codes
against exponent tuples, and the width guard in the kernels that use them."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groebner_oracle import division_buchberger, monomial_divides, monomial_lcm
from legquad.groebner import buchberger
from legquad.legendrian import VarietyPresentation
from legquad.liealg import bracket_closure
from legquad.poly import MonomialCodec, Polynomial, grevlex_key, monomial_mul, parse_poly
from legquad.symplectic import poisson_bracket, standard_form


@st.composite
def codec_and_exponents(draw, count=2):
    """A codec sized for a drawn degree bound, and `count` exponent vectors
    whose entries fit its fields."""
    nvars = draw(st.integers(1, 8))
    codec = MonomialCodec(nvars, draw(st.sampled_from([1, 2, 5, 126, 127, 128, 1000, 32767])))
    # the ends of a field, where a borrow or a guard bit would show, come often
    entry = st.one_of(st.integers(0, codec.limit), st.sampled_from([0, 1, codec.limit - 1, codec.limit]))
    vectors = [tuple(draw(st.lists(entry, min_size=nvars, max_size=nvars))) for _ in range(count)]
    return codec, vectors


@given(codec_and_exponents(count=1))
def test_pack_unpack_roundtrip(case):
    codec, [e] = case
    assert codec.unpack(codec.pack(e)) == e
    assert codec.degree(codec.pack(e)) == sum(e)


@given(codec_and_exponents())
def test_codes_add_like_monomials(case):
    codec, [a, b] = case
    if max(monomial_mul(a, b)) <= codec.limit:
        assert codec.pack(a) + codec.pack(b) == codec.pack(monomial_mul(a, b))


@given(codec_and_exponents())
def test_int_order_is_grevlex(case):
    """Int order is grevlex reversed: the least code leads."""
    codec, [a, b] = case
    assert (codec.pack(a) < codec.pack(b)) == (grevlex_key(a) > grevlex_key(b))
    assert (codec.pack(a) == codec.pack(b)) == (a == b)


@st.composite
def codec_and_polynomial(draw):
    """A codec of 8- or 16-bit fields and a nonzero polynomial whose
    exponents fit them."""
    codec, vectors = draw(codec_and_exponents(count=draw(st.integers(1, 6))))
    coefficients = st.fractions(max_denominator=12).filter(bool)
    return codec, Polynomial(codec.nvars, {e: draw(coefficients) for e in vectors})


@given(codec_and_polynomial())
@example((MonomialCodec(2, 127), Polynomial(2, {(127, 0): 1, (0, 127): -2, (63, 64): 3})))
@example((MonomialCodec(2, 32767), Polynomial(2, {(32767, 0): 1, (0, 32767): 5, (1, 1): -1})))
def test_a_row_is_a_polynomial_on_its_codes(case):
    """A polynomial's row holds its terms at their codes, `polynomial` reads
    it back, and its least code is its leading monomial, the pivot of the
    row in an `Echelon`."""
    codec, p = case
    row = codec.row(p)
    assert [codec.unpack(k) for k in row] == list(p.terms)
    assert codec.polynomial(row) == p
    assert min(row) == codec.pack(p.leading_monomial())
    assert codec.polynomial({k: 2 * c for k, c in row.items()}, 2) == p


@given(codec_and_exponents(count=4))
@example((MonomialCodec(3, 32767), [(32767, 0, 16384), (0, 32767, 16383), (1, 2, 3), (32766, 32767, 0)]))
@example((MonomialCodec(2, 127), [(127, 0), (0, 127), (64, 63), (126, 127)]))
def test_divisibility_and_lcm_agree_with_tuples(case):
    codec, vectors = case
    t = vectors[0]
    # a divisor of t too, so that both answers occur often
    vectors.append(tuple(x // 2 for x in t))
    codes = [codec.pack(a) for a in vectors]
    assert list(codec.dividing(codec.pack(t), codes)) == [
        k for k, a in enumerate(vectors) if monomial_divides(a, t)
    ]
    for a in vectors:
        assert codec.unpack(codec.lcm(codec.pack(a), codec.pack(t))) == monomial_lcm(a, t)


@settings(max_examples=50)
@given(codec_and_exponents(count=1), st.integers(0, 7), st.integers(1, 40000))
def test_too_wide_an_exponent_raises(case, position, excess):
    codec, [e] = case
    wide = list(e)
    wide[position % len(wide)] = codec.limit + excess
    with pytest.raises(ValueError):
        codec.pack(tuple(wide))


def test_field_widths():
    assert MonomialCodec(3, 127).limit == 127
    assert MonomialCodec(3, 128).limit == 32767
    with pytest.raises(ValueError):
        MonomialCodec(3, 32768)


def test_huge_degree_in_a_closure_check_raises():
    v = VarietyPresentation(
        "wide", standard_form(1), [parse_poly("x0^70000", 2), parse_poly("x1^2", 2)]
    )
    with pytest.raises(ValueError, match="too large"):
        bracket_closure(v.generators, v.form)
    with pytest.raises(ValueError, match="too large"):
        poisson_bracket(v.generators[0], v.generators[1], v.form)


def test_basis_past_the_narrow_field_repacks():
    """A step of degree 130 outgrows the 8-bit fields; the basis is still
    the division oracle's."""
    gens = [parse_poly("x0^130 - x1*x2", 3), parse_poly("x1^2 - x2", 3)]
    assert buchberger(gens, 3) == division_buchberger(gens)
