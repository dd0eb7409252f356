import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy

import groebner_oracle
from legquad.poly import Polynomial, parse_poly
from legquad.symplectic import SymplecticForm, pairing_form, poisson_bracket, standard_form

from linalg_oracle import identity, mat_scale, zeros
from symplectic_oracle import (
    QuadraticForm,
    commutator,
    dual_form,
    fraction_form,
    quadric_bracket_matrix,
    quadric_to_sp,
    sp_membership,
)

CUBIC_FORM = [[0, 0, 0, -1], [0, 0, 3, 0], [0, -3, 0, 0], [1, 0, 0, 0]]
CUBIC_DUAL = [[0, 0, 0, 3], [0, 0, -1, 0], [0, 1, 0, 0], [-3, 0, 0, 0]]


@pytest.fixture
def cubic_form():
    return SymplecticForm(CUBIC_FORM, dual_matrix=CUBIC_DUAL)


def test_standard_form_matrices():
    assert standard_form(1).matrix == [[0, 1], [-1, 0]]
    j2 = standard_form(2).matrix
    assert j2[0][2] == 1 and j2[2][0] == -1 and j2[1][3] == 1
    assert standard_form(3).dim == 6
    with pytest.raises(ValueError):
        standard_form(0)


def test_form_validation():
    with pytest.raises(ValueError):
        SymplecticForm([[0, 1], [1, 0]])          # not skew
    with pytest.raises(ValueError):
        SymplecticForm([[0, 0], [0, 0]])          # degenerate
    with pytest.raises(ValueError):
        SymplecticForm([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd dimension


def _random_skew(rng, n):
    """A random n x n skew matrix of small rationals in which some row has
    two or more nonzero entries, so that it is no pairing of coordinates."""
    while True:
        m = zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    m[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    m[j][i] = -m[i][j]
        if any(sum(1 for x in row if x) > 1 for row in m):
            return m


@pytest.mark.parametrize("seed", range(4))
def test_dual_matrix_matches_sympy(seed):
    """The dual read off one tracked elimination over J's rows is sympy's
    -J^{-1}, and its integer rows over `dual_den` are that matrix; a
    singular skew J is refused."""
    rng = random.Random(200 + seed)
    checked = 0
    for _ in range(12):
        n = rng.choice((4, 6, 8))
        m = _random_skew(rng, n)
        sm = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for row in m for x in row])
        if sm.rank() < n:
            with pytest.raises(ValueError, match="must be invertible"):
                SymplecticForm(m)
            continue
        form = SymplecticForm(m)
        expected = [[-Fraction(int(x.p), int(x.q)) for x in sm.inv().row(i)] for i in range(n)]
        assert form.dual_matrix == expected
        assert form.matrix == m
        assert form.dual_rows == [
            [(j, x * form.dual_den) for j, x in enumerate(row) if x] for row in expected
        ]
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("matrix, dual, error, message", [
    ([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], None, ValueError,
     "symplectic form matrix must be invertible"),
    ([[0, 1, 2, 3], [-1, 0, 2, 4], [-2, -2, 0, 2], [-3, -4, -2, 0]], None, ValueError,
     "symplectic form matrix must be invertible"),
    ([[0, 1], [-1]], None, ValueError, "symplectic form matrix must be skew-symmetric"),
    ([[0, 1, 0], [-1, 0]], None, ValueError, "symplectic form matrix must be skew-symmetric"),
    ([[0, 1], [1, 0]], None, ValueError, "symplectic form matrix must be skew-symmetric"),
    ([[1, 1], [-1, 0]], None, ValueError, "symplectic form matrix must be skew-symmetric"),
    ([[0, "x"], [-1, 0]], None, ValueError, "Invalid literal for Fraction: 'x'"),
    ([[0, None], [-1, 0]], None, TypeError, "argument should be a string or a Rational instance"),
    ([[0, 1], [-1, 0]], [[0, 1], [-1]], ValueError, "dual_matrix must be a nonzero scalar multiple"),
    ([[0, 1], [-1, 0]], [[0, "y"], [-1, 0]], ValueError, "Invalid literal for Fraction: 'y'"),
    ([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], None, ValueError, "positive even dimension, got 3"),
])
def test_malformed_forms_keep_their_messages(matrix, dual, error, message):
    with pytest.raises(error, match=message):
        SymplecticForm(matrix, dual)


def test_dual_form_examples():
    for n in (1, 2, 3):
        j = standard_form(n)
        assert dual_form(j).matrix == j.matrix
    two = SymplecticForm([[0, 2], [-2, 0]])
    assert dual_form(two).matrix == [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]
    # the cubic's computed dual is -M^{-1}; the conventional normalization
    # used by its catalog entry is the (-3)-multiple of that
    plain = SymplecticForm(CUBIC_FORM)
    computed = dual_form(plain).matrix
    assert mat_scale(computed, -3) == CUBIC_DUAL
    # rows of -J^{-1} over different denominators share their lcm: J with
    # blocks 1/2 and 3 has dual blocks 2 and 1/3
    blocks = SymplecticForm([[0, Fraction(1, 2), 0, 0], [Fraction(-1, 2), 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]])
    assert (blocks.dual_rows, blocks.dual_den) == ([[(1, 6)], [(0, -6)], [(3, 1)], [(2, -1)]], 3)


def _reading(matrix, dual=None):
    """What `SymplecticForm` reads: (J, dual) as dense Fractions, or None
    when it refuses them; its integer rows are checked to be den * J with
    den least."""
    try:
        form = SymplecticForm(matrix, dual)
    except ValueError:
        return None
    j = form.matrix
    assert form.den == lcm(*[x.denominator for row in j for x in row])
    assert form.rows == [[(k, x * form.den) for k, x in enumerate(row) if x] for row in j]
    assert all(type(a) is int for row in form.rows for _, a in row)
    assert gcd(form.dual_den, *[a for row in form.dual_rows for _, a in row]) == 1
    return j, form.dual_matrix


def test_integer_rows_read_every_catalog_form_as_fractions_do(entries):
    """Every catalog form, given as Fractions and read back from its JSON,
    reads as the dense Fraction oracle reads it."""
    for entry in entries.values():
        form = entry.presentation.form
        expected = fraction_form(form.matrix, form.dual_matrix)
        assert expected == (form.matrix, form.dual_matrix)
        assert _reading(form.matrix, form.dual_matrix) == expected
        again = SymplecticForm.from_json(form.to_json())
        assert again == form and (again.matrix, again.dual_matrix) == expected


@pytest.mark.parametrize("seed", range(3))
def test_integer_rows_accept_and_reject_as_fractions_do(seed):
    """Random skew forms, some singular, with no dual, a scaled computed
    dual, that dual with one entry moved, a pairwise rescaled dual and a
    dual of the wrong shape: the same matrices, or a refusal, as the dense
    Fraction oracle."""
    rng = random.Random(500 + seed)
    outcomes = {True: 0, False: 0}
    for _ in range(10):
        n = rng.choice((2, 4, 6))
        m = _random_skew(rng, n) if n > 2 else [[0, Fraction(rng.randint(-4, 4), 3)], [0, 0]]
        m[1][0] = -m[0][1]
        computed = fraction_form(m)
        base = computed[1] if computed else [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        scale = Fraction(rng.choice([-5, -1, 1, 3]), rng.choice([1, 2, 9]))
        scaled = mat_scale(base, scale)
        moved = [list(row) for row in scaled]
        moved[rng.randrange(n)][rng.randrange(n)] += Fraction(1, 7)
        paired = [[x * (2 if i % 2 else 1) for x in row] for i, row in enumerate(scaled)]
        for dual in (None, scaled, moved, paired, scaled[:-1], [row + [0] for row in scaled]):
            expected = fraction_form(m, dual)
            assert _reading(m, dual) == expected
            outcomes[expected is not None] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10


def _dense_pairing(nvars, pairs):
    """The form of `pairing_form` read through a dense matrix of Fractions."""
    matrix = [[0] * nvars for _ in range(nvars)]
    for a, b, s in pairs:
        matrix[a][b] += Fraction(s)
        matrix[b][a] -= Fraction(s)
    return SymplecticForm(matrix)


def _built(build, *args):
    """The form's rows, dual and JSON text, or the message it is refused with."""
    try:
        form = build(*args)
    except ValueError as exc:
        return str(exc)
    return form.dim, form.rows, form.den, form.dual_rows, form.dual_den, form.to_json()


def test_pairing_forms_build_the_rows_of_the_dense_route():
    """`pairing_form` builds its integer rows from the pairs; they, the
    dual and the JSON text are those of the dense matrix, or both are
    refused with one message: on `standard_form(n)` for n = 1 to 8 and on
    seeded rational pairings with repeated, reversed and diagonal pairs,
    some of them singular and some of odd size.  A pair outside the
    coordinates is refused, where the dense route wrapped a negative one."""
    for n in range(1, 9):
        assert _built(standard_form, n) == _built(_dense_pairing, 2 * n, [(i, n + i, 1) for i in range(n)])
    rng = random.Random(4300)

    def weight():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))

    outcomes = {True: 0, False: 0}
    for _ in range(80):
        nvars = rng.choice((2, 3, 4, 6, 8))
        coordinates = rng.sample(range(nvars), nvars)
        pairs = [(coordinates[2 * k], coordinates[2 * k + 1], weight()) for k in range(nvars // 2)]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randrange(nvars), rng.randrange(nvars)
            pairs.append((a, b, rng.choice((weight(), str(weight()), 0.5))))
        if rng.random() < 0.3:
            a, b, s = rng.choice(pairs)
            pairs.append((b, a, s))  # cancels that pair's entries
        expected = _built(_dense_pairing, nvars, pairs)
        assert _built(pairing_form, nvars, pairs) == expected, pairs
        outcomes[type(expected) is tuple] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 10
    for pair in ((0, 4), (4, 0), (-1, 2)):
        with pytest.raises(ValueError, match="outside the 4 coordinates"):
            pairing_form(4, [(*pair, 1)])


def test_dual_override_must_be_scalar_multiple():
    with pytest.raises(ValueError):
        SymplecticForm(CUBIC_FORM, dual_matrix=[[0, 0, 0, 3], [0, 0, -1, 0], [0, 1, 0, 0], [-3, 0, 0, 1]])


def test_dual_override_rejects_a_diagonal_but_not_scalar_product():
    # J * dual = diag(-2, -1, -2, -1): each pair rescaled on its own
    dual = [[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]]
    with pytest.raises(ValueError, match="scalar multiple"):
        SymplecticForm(standard_form(2).matrix, dual_matrix=dual)


def test_dual_override_rejects_a_singular_form():
    """A supplied dual passes only when J * dual = -c * I with c != 0,
    which no singular J allows."""
    singular = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match="scalar multiple"):
        SymplecticForm(singular, dual_matrix=standard_form(2).matrix)
    with pytest.raises(ValueError, match="scalar multiple"):
        SymplecticForm([[0, 0], [0, 0]], dual_matrix=[[0, 1], [-1, 0]])


def test_dual_override_rejects_a_form_that_is_not_skew():
    # J * dual = -I holds here, so only the skew test can refuse it
    symmetric = [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="skew"):
        SymplecticForm(symmetric, dual_matrix=[[0, -1], [-1, 0]])


def test_twisted_cubic_bracket_table(cubic_form):
    f_plus = parse_poly("x2^2 - x1*x3", 4)
    f_minus = parse_poly("x0*x2 - x1^2", 4)
    h = parse_poly("x0*x3 - x1*x2", 4)
    assert poisson_bracket(f_plus, f_minus, cubic_form) == h
    assert poisson_bracket(h, f_plus, cubic_form) == f_plus.scale(2)
    assert poisson_bracket(h, f_minus, cubic_form) == f_minus.scale(-2)
    assert poisson_bracket(f_plus, f_plus, cubic_form).is_zero()


def test_bracket_properties_randomized():
    rng = random.Random(97)
    form = standard_form(2)
    for _ in range(120):
        f = _random_poly(rng, 4, 3)
        g = _random_poly(rng, 4, 3)
        h = _random_poly(rng, 4, 3)
        fg = poisson_bracket(f, g, form)
        assert fg == -poisson_bracket(g, f, form)
        # Leibniz
        assert poisson_bracket(f * g, h, form) == f * poisson_bracket(g, h, form) + g * poisson_bracket(f, h, form)
        # Jacobi
        total = (
            poisson_bracket(f, poisson_bracket(g, h, form), form)
            + poisson_bracket(g, poisson_bracket(h, f, form), form)
            + poisson_bracket(h, poisson_bracket(f, g, form), form)
        )
        assert total.is_zero()


def test_bracket_grading():
    rng = random.Random(3)
    form = standard_form(3)
    for i in range(1, 4):
        for j in range(1, 4):
            f = _random_homog(rng, 6, i)
            g = _random_homog(rng, 6, j)
            br = poisson_bracket(f, g, form)
            assert br.is_zero() or br.homogeneous_degree() == i + j - 2


def test_extension_of_dual_pairing():
    form = standard_form(2)
    for i in range(4):
        for j in range(4):
            a = Polynomial.variable(4, i)
            b = Polynomial.variable(4, j)
            br = poisson_bracket(a, b, form)
            expected = form.dual_matrix[i][j]
            assert br == Polynomial.constant(4, expected)


def test_quadric_to_sp_example():
    j1 = standard_form(1)
    q = QuadraticForm([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert quadric_to_sp(q, j1).matrix == [[1, 0], [0, -1]]
    zero = QuadraticForm(zeros(2, 2))
    assert quadric_to_sp(zero, j1).matrix == zeros(2, 2)


def test_sp_membership_examples():
    j1 = standard_form(1)
    assert sp_membership(j1.matrix, j1)
    assert not sp_membership(identity(2), j1)


def test_quadric_to_sp_lands_in_sp_randomized():
    rng = random.Random(41)
    form = standard_form(2)
    for _ in range(20):
        q = _random_quadratic_form(rng, 4)
        assert sp_membership(quadric_to_sp(q, form).matrix, form)


def test_matrix_bracket_equals_differential_bracket(cubic_form):
    f_plus = parse_poly("x2^2 - x1*x3", 4)
    f_minus = parse_poly("x0*x2 - x1^2", 4)
    qa = QuadraticForm.from_polynomial(f_plus)
    qb = QuadraticForm.from_polynomial(f_minus)
    br = quadric_bracket_matrix(qa, qb, cubic_form)
    assert br.to_polynomial() == parse_poly("x0*x3 - x1*x2", 4)
    assert quadric_bracket_matrix(qa, qa, cubic_form).to_polynomial().is_zero()


def test_two_bracket_routes_agree_randomized():
    rng = random.Random(7)
    for form in (standard_form(2), SymplecticForm(CUBIC_FORM, dual_matrix=CUBIC_DUAL)):
        for _ in range(50):
            qa = _random_quadratic_form(rng, 4)
            qb = _random_quadratic_form(rng, 4)
            via_matrix = quadric_bracket_matrix(qa, qb, form).to_polynomial()
            via_diff = poisson_bracket(qa.to_polynomial(), qb.to_polynomial(), form)
            assert via_matrix == via_diff


def test_sp_map_intertwines_brackets():
    rng = random.Random(13)
    form = standard_form(3)
    for _ in range(30):
        qa = _random_quadratic_form(rng, 6)
        qb = _random_quadratic_form(rng, 6)
        lhs = quadric_to_sp(quadric_bracket_matrix(qa, qb, form), form)
        rhs = commutator(quadric_to_sp(qa, form), quadric_to_sp(qb, form))
        assert lhs.matrix == rhs.matrix


def test_quadratic_form_poly_roundtrip():
    rng = random.Random(2)
    for _ in range(40):
        q = _random_quadratic_form(rng, 5)
        assert QuadraticForm.from_polynomial(q.to_polynomial()).matrix == q.matrix


def test_form_json_roundtrip():
    form = SymplecticForm(CUBIC_FORM, dual_matrix=CUBIC_DUAL)
    again = SymplecticForm.from_json(form.to_json())
    assert again.matrix == form.matrix
    assert again.dual_matrix == form.dual_matrix
    plain = standard_form(2)
    assert SymplecticForm.from_json(plain.to_json()).matrix == plain.matrix


def test_integer_bracket_matches_gradient_products_under_a_scaled_dual():
    """The packed integer kernel, with denominators in the generators and in
    the dual, against the bracket as a sum of Fraction polynomial products."""
    rng = random.Random(13)
    form = SymplecticForm(CUBIC_FORM, dual_matrix=mat_scale(CUBIC_DUAL, Fraction(1, 3)))
    assert form.dual_den == 3
    for _ in range(60):
        f, g = _random_poly(rng, 4, 4), _random_poly(rng, 4, 4)
        assert poisson_bracket(f, g, form) == groebner_oracle.poisson_bracket(f, g, form)


def _random_poly(rng, nvars, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Polynomial(nvars, terms)


def _random_homog(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6))
    p = Polynomial(nvars, terms)
    if p.is_zero():
        exps = [0] * nvars
        exps[0] = degree
        p = Polynomial(nvars, {tuple(exps): Fraction(1)})
    return p


def _random_quadratic_form(rng, n):
    m = zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
            m[i][j] = v
            m[j][i] = v
    return QuadraticForm(m)
