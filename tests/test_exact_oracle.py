"""The integer root routines and C-matrix cross-check against the seed's.

``rational_roots``, ``is_real_rooted`` and ``real_root_count`` must
return exactly the Fraction oracles' results, value and type, on planted
polynomials with small coefficients (fixed seed and hypothesis), on the
(8,8,8) iterates for n = 0..18, on iterates of seeded voxel h-vectors
and on the short h-polynomials of the default corpus before and after
one subdivision. On the same inputs the last member of the integer Sturm
sequence must be a nonzero rational multiple of the Fraction Euclid's
gcd(p, p'), and the first member of the sequence divided by it one of
the oracle's square-free part.
The package's coefficientwise bivariate check, the integer grid oracle
and the Fraction oracle must accept ``c_matrix`` for d = 1..20 and reject,
with the same message, a single perturbed entry and two swapped columns.
The package check must name the grid oracle's point for fixed-seed
changes of one to three numerators by +-1 or +-den at d = 1..30, accept
C(d) for d = 1..60, 100 and 200, and build C(25) without the integer
Horner evaluator.
The alternating sums over B must equal the oracle's, entry and type, for
d = 1..30, and ``c_matrix`` must refuse a B that disagrees with them.
``b_matrix`` and ``c_matrix`` must equal the seed's Fraction builders,
entry and type, for d = 1..40, and ``coeffs`` must print the bytes it
printed before the builders moved to integers, at B(200) and C(100).
``CoeffMatrix.apply`` must equal the Fraction product, entry and type, for
B(d) and C(d) at d = 1..30 on int, Fraction and mixed vectors (fixed seed
and hypothesis), and the transforms must warn exactly when that product
has a Fraction. ``mobius_transform`` must equal the seed's substitution
by polynomial powers, value and coefficient type, on signed, big and
Fraction coefficients, the zero polynomial, a..e in -3..3 and m from
deg p to deg p + 3 (fixed seed and hypothesis), and both must refuse
bool and float a..e with TypeError. ``TestFormerHangs`` guards the
inputs on which the seed's routines hung. ``TestIterateOracles`` requires
the iterates, ``limit_distance_hsc``/``limit_distance_hc``,
``_limit_rows``, ``f_of_subdivision`` and ``f_from_hsc`` to give the
Fraction route's values and types, or its error type and text, on the
corpus for n = -1..40 and on fixed-seed and hypothesis h-vectors with
int and Fraction entries.
"""

import hashlib
import math
import random
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import (
    FVector,
    LongHVector,
    RatPoly,
    ShortHVector,
    b_matrix,
    c_matrix,
    check_long_short_identity,
    euler_reduced,
    f_from_hsc,
    f_of_subdivision,
    f_vector,
    hc_from_hsc,
    hc_of_subdivision,
    hc_poly_of_iterate,
    hsc_from_f,
    hsc_of_subdivision,
    hsc_poly_of_iterate,
    is_real_rooted,
    limit_distance_hc,
    limit_distance_hsc,
    mobius_transform,
    rational_roots,
    real_root_count,
    shape_predicates,
)
from cubary import polytools, transform
from cubary.cli import main
from cubary.corpus import default_corpus
from cubary.polytools import _chain, _quotient
from conftest import random_voxel_complexes
from exact_oracle import (
    X,
    apply_oracle,
    b_matrix_oracle,
    c_alternating_sums_oracle,
    c_closed_forms_oracle,
    check_c_bivariate_grid_oracle,
    check_c_bivariate_oracle,
    derivative_oracle,
    f_from_hsc_oracle,
    f_of_subdivision_oracle,
    hc_poly_of_iterate_oracle,
    hsc_poly_of_iterate_oracle,
    is_real_rooted_oracle,
    leading,
    limit_distance_hc_oracle,
    limit_distance_hsc_oracle,
    limit_rows_oracle,
    mobius_transform_oracle,
    poly_add,
    poly_gcd_oracle,
    poly_pow,
    rational_roots_oracle,
    real_root_count_oracle,
    square_free_part_oracle,
)


def planted_poly(randint) -> RatPoly:
    """A polynomial with planted factors, each size drawn by randint(lo, hi).

    A nonzero rational constant, a power of x, rational roots with
    multiplicity 1 or 2 and irreducible quadratics x^2 + bx + c (b^2 < 4c);
    one draw in four then adds a constant, which usually leaves irrational
    real roots or none in place of the planted ones.
    """
    p = RatPoly((Fraction(randint(1, 6) * (-1) ** randint(0, 1), randint(1, 4)),))
    p = p * RatPoly(poly_pow(X, randint(0, 2)))
    for _ in range(randint(0, 3)):
        root = Fraction(randint(-6, 6), randint(1, 4))
        p = p * RatPoly(poly_pow((-root, 1), randint(1, 2)))
    for _ in range(randint(0, 2)):
        p = p * RatPoly((randint(2, 4), randint(-2, 2), 1))
    if randint(0, 3) == 0:
        p = RatPoly(poly_add(p.coeffs, (randint(-3, 3),)))
    return p


ROUTINES = [
    (rational_roots, rational_roots_oracle),
    (is_real_rooted, is_real_rooted_oracle),
    (real_root_count, real_root_count_oracle),
]


def _typed(result) -> tuple:
    """A result with the type of each value, so equal means equal and alike."""
    values = result.coeffs if isinstance(result, RatPoly) else result
    values = values if isinstance(values, (list, tuple)) else [values]
    return result, [type(v) for v in values]


def _multiple(ints: list, q: RatPoly) -> bool:
    """True iff the int coefficients ints are a nonzero rational multiple of q."""
    return not q.is_zero() and RatPoly(ints) * leading(q.coeffs) == q * ints[-1]


def _agree(p: RatPoly) -> None:
    if p.degree > 0:
        chain = _chain(p)
        assert _multiple(chain[-1], poly_gcd_oracle(p, derivative_oracle(p))), p
        assert _multiple(_quotient(chain[0], chain[-1]), square_free_part_oracle(p)), p
    if p.is_zero():
        for routine, oracle in ROUTINES:
            for fn in (routine, oracle):
                with pytest.raises(ValueError):
                    fn(p)
        return
    for routine, oracle in ROUTINES:
        assert _typed(routine(p)) == _typed(oracle(p)), (routine.__name__, p)


class TestRationalRoots:
    def test_small_cases(self):
        for coeffs in ((7,), (Fraction(-2, 3),), (0, 0, 5), (0, -1, 2), (-6, 11, -6, 1),
                       (1, 1, 1), (-2, 0, 1), (1, -2, 1), (Fraction(1, 4), -1, 1)):
            _agree(RatPoly(coeffs))

    def test_planted_fixed_seed(self):
        rng = random.Random(1976)
        for _ in range(200):
            _agree(planted_poly(rng.randint))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_planted_hypothesis(self, data):
        _agree(planted_poly(lambda lo, hi: data.draw(st.integers(lo, hi))))

    def test_iterates_of_888(self):
        for n in range(19):
            _agree(hsc_poly_of_iterate(ShortHVector((8, 8, 8)), n))

    def test_iterates_of_seeded_voxel_complexes(self):
        for dim, seed, ns in ((2, 701, (2, 4, 6, 8)), (3, 702, (2, 4))):
            for _, K in random_voxel_complexes(seed, dim, 4):
                h = hsc_from_f(f_vector(K))
                for n in ns:
                    _agree(hsc_poly_of_iterate(h, n))

    def test_subdivided_default_corpus(self):
        for _, K in default_corpus():
            h = hsc_from_f(f_vector(K))
            _agree(h.polynomial())
            _agree(hsc_of_subdivision(h).polynomial())


def _check_entries(d: int, entries: tuple) -> None:
    """The package's coefficientwise check, on entries cleared to one denominator."""
    transform._check_c_bivariate(d, *transform.CoeffMatrix("C", d, entries)._scaled)


def _grid_entries(d: int, entries: tuple) -> None:
    """The integer grid oracle, on entries cleared to one denominator."""
    check_c_bivariate_grid_oracle(d, *transform.CoeffMatrix("C", d, entries)._scaled)


def mobius_input(randint) -> tuple:
    """(p, a, b, c, e, m) for mobius_transform, each size drawn by
    randint(lo, hi): p has up to 6 coefficients, each a small signed int,
    a big one or a Fraction (none at all is the zero polynomial), a..e
    lie in -3..3 and m in deg p .. deg p + 3."""
    coeffs = []
    for _ in range(randint(0, 6)):
        flavour = randint(0, 2)
        c = randint(-9, 9)
        if flavour == 1:
            c *= 10 ** randint(20, 40) + randint(0, 9)
        elif flavour == 2:
            c = Fraction(c, randint(1, 12))
        coeffs.append(c)
    p = RatPoly(coeffs)
    return (p, *(randint(-3, 3) for _ in range(4)), p.degree + randint(0, 3))


def _mobius_agrees(args: tuple) -> None:
    assert _typed(mobius_transform(*args)) == _typed(mobius_transform_oracle(*args)), args
    p, *abce, m = args
    for i in range(4):
        for wrong in (True, 1.0):
            bad = (p, *abce[:i], wrong, *abce[i + 1:], m)
            for fn in (mobius_transform, mobius_transform_oracle):
                with pytest.raises(TypeError):
                    fn(*bad)


class TestMobiusOracle:
    def test_fixed_seed(self):
        rng = random.Random(1948)
        for _ in range(300):
            _mobius_agrees(mobius_input(rng.randint))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_hypothesis(self, data):
        _mobius_agrees(mobius_input(lambda lo, hi: data.draw(st.integers(lo, hi))))

    def test_cube_boundary_iterates(self):
        for n in range(6):
            a, b = 2**n + 1, 2**n - 1
            _mobius_agrees((RatPoly((8, 8, 8)), a, b, b, a, 2))


CHECKS = [_check_entries, _grid_entries, check_c_bivariate_oracle]


def _perturbed(entries: tuple, d: int) -> tuple:
    rows = [list(row) for row in entries]
    rows[d // 2][d // 3] += Fraction(1, 2 ** (d + 2))
    return tuple(map(tuple, rows))


def _swapped(entries: tuple, d: int) -> tuple:
    j = d // 3
    rows = [list(row) for row in entries]
    for row in rows:
        row[j], row[j + 1] = row[j + 1], row[j]
    out = tuple(map(tuple, rows))
    assert out != entries
    return out


def _message(check, *args) -> str | None:
    """check(*args)'s RuntimeError text, or None if it accepts."""
    try:
        check(*args)
    except RuntimeError as exc:
        return str(exc)
    return None


class TestBivariateCheck:
    @pytest.mark.parametrize("d", range(1, 21))
    def test_both_accept_c_matrix(self, d):
        for check in CHECKS:
            check(d, c_matrix(d).entries)

    @pytest.mark.parametrize("d", range(1, 21))
    @pytest.mark.parametrize("mutate", [_perturbed, _swapped], ids=lambda m: m.__name__)
    def test_both_reject_with_the_same_message(self, d, mutate):
        bad = mutate(c_matrix(d).entries, d)
        messages = []
        for check in CHECKS:
            with pytest.raises(RuntimeError) as exc:
                check(d, bad)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == messages[2]

    def test_changed_numerators_name_the_grid_point(self):
        # D(x, y) at a grid point is exactly what the grid compares there,
        # so the first nonzero point is the one the grid scan stops at
        rng = random.Random(25)
        for d in range(1, 31):
            den, rows = transform._c_closed_forms(d)
            for _ in range(4):
                bad = [list(row) for row in rows]
                cells = [(i, j) for i in range(d + 1) for j in range(d + 1)]
                for i, j in rng.sample(cells, min(len(cells), rng.randint(1, 3))):
                    bad[i][j] += rng.choice((1, -1, den, -den))
                bad = tuple(map(tuple, bad))
                want = _message(check_c_bivariate_grid_oracle, d, den, bad)
                assert want is not None
                assert _message(transform._check_c_bivariate, d, den, bad) == want

    @pytest.mark.parametrize("d", [*range(1, 61), 100, 200])
    def test_package_check_accepts(self, d):
        transform._check_c_bivariate(d, *transform._c_closed_forms(d))

    def test_c_matrix_needs_no_horner(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("C(d) evaluated a polynomial by Horner")

        assert not hasattr(transform, "_homogeneous")
        monkeypatch.setattr(polytools, "_homogeneous", refuse)
        transform.c_matrix.cache_clear()
        try:
            assert c_matrix(25).entries == c_closed_forms_oracle(25)
        finally:
            transform.c_matrix.cache_clear()

    def test_perturbed_matrix_exits_4(self, monkeypatch, capsys):
        d = 7
        den, rows = transform._c_closed_forms(d)
        rows = [list(row) for row in rows]
        rows[d // 2][d // 3] += 1
        bad = den, tuple(map(tuple, rows))
        monkeypatch.setattr(transform, "_c_closed_forms", lambda d: bad)
        monkeypatch.setattr(transform, "_c_alternating_sums", lambda d: bad)
        transform.c_matrix.cache_clear()
        try:
            code = main(["coeffs", "--matrix", "C", "-d", str(d)])
        finally:
            transform.c_matrix.cache_clear()
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "bivariate generating function" in err


class TestAlternatingSums:
    @pytest.mark.parametrize("d", range(1, 31))
    def test_recursion_equals_the_sums(self, d):
        got = transform._over(*transform._c_alternating_sums(d))
        want = c_alternating_sums_oracle(d)
        assert got == want
        assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]

    def test_perturbed_b_is_refused(self, monkeypatch):
        d = 7
        B = transform.b_matrix(d)
        bad = _perturbed(B.entries, d - 1)
        monkeypatch.setattr(transform, "b_matrix", lambda d: transform.CoeffMatrix("B", d, bad))
        transform.c_matrix.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="closed forms disagree with alternating sums over B"):
                c_matrix(d)
        finally:
            transform.c_matrix.cache_clear()


def _types(entries: tuple) -> list:
    return [list(map(type, row)) for row in entries]


class TestIntegerBuilders:
    @pytest.mark.parametrize("d", range(1, 41))
    def test_equal_the_fraction_builders(self, d):
        for got, want in (
            (b_matrix(d).entries, b_matrix_oracle(d).entries),
            (c_matrix(d).entries, c_closed_forms_oracle(d)),
        ):
            assert got == want
            assert _types(got) == _types(want)

    @pytest.mark.parametrize(
        "kind, d, digest",
        [
            ("B", 200, "cded2ab16e48853f0c0fbc073dadb56fa0175e26c2f32dd21d448c3467d14a04"),
            ("C", 100, "2a9997f8609d7fb9568dd456c37af57dbef7d11fccffe411a6a0028d52d532d1"),
        ],
    )
    def test_coeffs_stdout_is_unchanged(self, capsys, kind, d, digest):
        assert main(["coeffs", "--matrix", kind, "-d", str(d)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _matrix(kind: str, d: int):
    return b_matrix(d) if kind == "B" else c_matrix(d)


def apply_input(randint, kind: str, d: int) -> list:
    """A vector for B(d) or C(d), each size drawn by randint(lo, hi).

    Ints, Fractions or a mix; one draw in three is an int vector times the
    matrix's common denominator, whose image is integral. A C(d) input
    starts with 2^(d-1), as a long h-vector must.
    """
    M = _matrix(kind, d)
    flavour = randint(0, 2)
    if flavour == 0:
        den = math.lcm(*(e.denominator for row in M.entries for e in row))
        vec = [den * randint(-9, 9) for _ in range(M.size)]
    else:
        vec = [randint(-40, 40) for _ in range(M.size)]
        if flavour == 2:
            vec = [Fraction(x, randint(1, 6)) if randint(0, 1) else x for x in vec]
    if kind == "C":
        vec[0] = 2 ** (d - 1)
    return vec


def _apply_agrees(kind: str, d: int, vec: list) -> None:
    M = _matrix(kind, d)
    want = apply_oracle(M, vec)
    for got in (M.apply(vec), M.apply(tuple(vec))):
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
    wrap, transform_h = (
        (ShortHVector, hsc_of_subdivision) if kind == "B" else (LongHVector, hc_of_subdivision)
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = transform_h(wrap(vec))
    assert out.entries == want
    fractional = any(type(x) is Fraction for x in want)
    assert [(w.category, "non-integer entries" in str(w.message)) for w in caught] == (
        [(RuntimeWarning, True)] if fractional else []
    )


class TestApply:
    @pytest.mark.parametrize("d", range(1, 31))
    @pytest.mark.parametrize("kind", ["B", "C"])
    def test_fixed_seed(self, kind, d):
        rng = random.Random(1000 * d + ord(kind))
        for _ in range(12):
            _apply_agrees(kind, d, apply_input(rng.randint, kind, d))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_hypothesis(self, data):
        kind = data.draw(st.sampled_from("BC"))
        d = data.draw(st.integers(1, 30))
        _apply_agrees(kind, d, apply_input(lambda lo, hi: data.draw(st.integers(lo, hi)), kind, d))

    def test_rejects_floats_and_wrong_lengths(self):
        for vec in ((1.0, 2), (True, 0)):
            with pytest.raises(TypeError):
                b_matrix(2).apply(vec)
        with pytest.raises(ValueError):
            c_matrix(2).apply((2, 1))


class TestFormerHangs:
    def test_roots_of_888_at_n_30(self):
        # 63-bit coefficients: the seed's divisor search did not finish in 20 s
        start = time.perf_counter()
        assert rational_roots(hsc_poly_of_iterate(ShortHVector((8, 8, 8)), 30)) == []
        assert time.perf_counter() - start < 5

    def test_sturm_counts_at_degree_79(self):
        # sd of the boundary of the 80-cube: 2^80 (1 + x + ... + x^79) has the
        # one real root -1, and subdivision maps roots by a Moebius map
        f = FVector(2 ** (80 - i) * math.comb(80, i) for i in range(80))
        p = hsc_of_subdivision(hsc_from_f(f)).polynomial()
        assert p.degree == 79
        start = time.perf_counter()
        assert (is_real_rooted(p), real_root_count(p)) == (False, 1)
        # Fraction Euclid takes about degree^5 time: 17.7 s on a 2-CPU VM
        assert time.perf_counter() - start < 2

    def test_mobius_degree_300(self):
        # the seed raised two RatPoly powers per term: 7-8 s on a 2-CPU VM
        rng = random.Random(300)
        p = RatPoly([rng.randint(-99, 99) for _ in range(300)] + [1])
        start = time.perf_counter()
        q = mobius_transform(p, 3, 1, 1, 3, 300)
        assert time.perf_counter() - start < 2
        for t in (0, 1, Fraction(-1, 2), Fraction(2, 7)):
            assert q(t) == (t + 3) ** 300 * p(Fraction(3 * t + 1) / (t + 3)), t

    def test_c_matrix_30_builds(self):
        transform.c_matrix.cache_clear()
        start = time.perf_counter()
        C = c_matrix(30)
        assert time.perf_counter() - start < 5
        assert C.size == 31 and C.entries[0][0] == 1


def _outcome(fn, *args) -> tuple:
    """fn's result with its value types (an FVector's entries), or the
    type and message of the error it raised."""
    try:
        result = fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return _typed(result.entries if isinstance(result, FVector) else result)


def _same(pairs) -> None:
    for routine, oracle, args in pairs:
        assert _outcome(routine, *args) == _outcome(oracle, *args), (routine.__name__, args)


def _rows_agree(h: ShortHVector, f_top: int, euler, ns) -> None:
    """_limit_rows against the oracle: each distance by value and type,
    each row's numerators over _iterate's den times 2^n(d-1) by value and
    by shape, and the first error by type and message."""
    got, want = transform._limit_rows(h, f_top, euler, ns), limit_rows_oracle(h, f_top, euler, ns)
    for n in ns:
        try:
            scaled, dist = next(want)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                next(got)
            assert str(caught.value) == str(exc), (h, euler, n)
            return
        nums, got_dist = next(got)
        assert _typed(got_dist) == _typed(dist), (h, euler, n)
        den = transform._iterate(h, euler, n)[0] << n * (h.d - 1)
        assert [Fraction(u, den) for u in nums] == list(scaled), (h, euler, n)
        assert shape_predicates(nums) == shape_predicates(scaled), (h, euler, n)


def iterate_input(randint) -> tuple:
    """(h, f_top, euler) for the iterates and the limit rows, each size
    drawn by randint(lo, hi): 1 <= d <= 6 entries, each a small signed int
    or a Fraction. Two draws in three then set h's last entry so that 1+x
    divides the long right-hand side for euler; the rest keep a random
    euler, for which it usually does not. f_top is sum(h) / 2^(d-1) when
    that is an int, as a complex's would be, else a random int."""
    d = randint(1, 6)
    top = 2 ** (d - 1)
    h = [randint(-20, 20) for _ in range(d)]
    h = [Fraction(x, randint(1, 8)) if randint(0, 1) else x for x in h]
    euler = randint(-5, 5)
    if randint(0, 2):
        # (1+x) divides it exactly when h(-1) = 2^(d-1) (1 + euler)
        rest = sum((-1) ** i * x for i, x in enumerate(h[:-1]))
        h[-1] = (-1) ** (d - 1) * (top * (1 + euler) - rest)
    h = ShortHVector(h)
    f_top = Fraction(sum(h.entries), top)
    return h, int(f_top) if f_top.denominator == 1 else randint(-5, 30), euler


def _iterates_agree(h: ShortHVector, f_top: int, euler: int, ns) -> None:
    _same((hsc_poly_of_iterate, hsc_poly_of_iterate_oracle, (h, n)) for n in ns)
    _same((hc_poly_of_iterate, hc_poly_of_iterate_oracle, (h, euler, n)) for n in ns)
    _same([(f_from_hsc, f_from_hsc_oracle, (h,))])
    _rows_agree(h, f_top, None, ns)
    if h.d >= 2:
        _rows_agree(h, f_top, euler, ns)


class TestIterateOracles:
    @pytest.mark.parametrize("which", ["hsc", "hc"])
    def test_corpus(self, which):
        ns = range(-1, 41)
        for _, K in default_corpus():
            f = f_vector(K)
            h, d, f_top, chi = hsc_from_f(f), f.d, f.entries[-1], euler_reduced(f)
            if which == "hsc":
                _same((hsc_poly_of_iterate, hsc_poly_of_iterate_oracle, (h, n)) for n in ns)
                _same(
                    (limit_distance_hsc, limit_distance_hsc_oracle, (h, t, n))
                    for n in ns for t in (f_top, f_top + 1)
                )
                _rows_agree(h, f_top, None, range(41))
                continue
            hc = hc_from_hsc(h)
            _same(
                (hc_poly_of_iterate, hc_poly_of_iterate_oracle, (h, e, n))
                for n in ns for e in (chi, chi + 1)
            )
            _same(
                (limit_distance_hc, limit_distance_hc_oracle, (hc, t, e, n))
                for n in ns for t, e in ((f_top, chi), (f_top + 1, chi), (f_top, chi + 1))
            )
            if d >= 2:
                _rows_agree(h, f_top, chi, range(41))

    def test_f_vector_substitutions_on_the_corpus(self):
        for _, K in default_corpus():
            f = f_vector(K)
            h = hsc_from_f(f)
            _same([
                (f_of_subdivision, f_of_subdivision_oracle, (f,)),
                (f_from_hsc, f_from_hsc_oracle, (h,)),
                (f_from_hsc, f_from_hsc_oracle, (ShortHVector((*h.entries[:-1], h.entries[-1] + 1)),)),
            ])
            assert f_from_hsc(h) == f
            assert check_long_short_identity(f) is True
        for h in ((-1,), (0,), (2, 1), (2, -8), (Fraction(1, 2), 3), (4, Fraction(-4, 3), 0)):
            _same([(f_from_hsc, f_from_hsc_oracle, (ShortHVector(h),))])

    def test_fixed_seed(self):
        rng = random.Random(2008)
        for _ in range(150):
            h, f_top, euler = iterate_input(rng.randint)
            _iterates_agree(h, f_top, euler, range(9))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_hypothesis(self, data):
        h, f_top, euler = iterate_input(lambda lo, hi: data.draw(st.integers(lo, hi)))
        _iterates_agree(h, f_top, euler, range(9))
        hc = hc_from_hsc(h)
        _same(
            (limit_distance_hc, limit_distance_hc_oracle, (hc, f_top, euler, n)) for n in range(4)
        )
        _same(
            (limit_distance_hsc, limit_distance_hsc_oracle, (h, f_top, n)) for n in range(4)
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(f=st.lists(st.integers(0, 10**30), min_size=1, max_size=12).filter(lambda f: f[-1] > 0))
    def test_f_of_subdivision_hypothesis(self, f):
        _same([(f_of_subdivision, f_of_subdivision_oracle, (FVector(f),))])
        h = hsc_from_f(FVector(f))
        _same([(f_from_hsc, f_from_hsc_oracle, (h,))])
