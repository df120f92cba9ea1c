"""Acceptance criteria, one test per criterion.

Every comparison is exact (integers or rationals); the only tolerances
are the stated runtime ceilings. Each test prints a single
``ACCEPTANCE <n>: PASS|FAIL`` line (visible with ``pytest -s``).
"""

import time
from fractions import Fraction

import pytest

from cubary import (
    LongHVector,
    ShortHVector,
    b_matrix,
    c_matrix,
    check_long_short_identity,
    euler_reduced,
    f_vector,
    from_voxels,
    gen_cube_boundary,
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
    shape_predicates,
    subdivide,
    VoxelSpec,
)
from cubary.corpus import default_corpus
from cubary.transform import _c_alternating_sums, _over, f_of_subdivision

from conftest import brute_force_interval_fvector, random_voxel_complexes


def _report(num: int, failures: list, elapsed: float, note: str = ""):
    status = "FAIL" if failures else "PASS"
    line = f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s)"
    if note:
        line += f" {note}"
    print(line)
    assert not failures, f"criterion {num}: {failures[:3]}"


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def test_criterion_1_cube_boundary_example():
    t0 = time.perf_counter()
    failures = []
    K = gen_cube_boundary(3)
    h = hsc_from_f(f_vector(K))
    if h.entries != (8, 8, 8):
        failures.append(f"hsc = {h.entries}")
    if is_real_rooted(h.polynomial()):
        failures.append("8(1+x+x^2) reported real-rooted")
    h_sd = hsc_of_subdivision(h)
    if h_sd.entries != (26, 44, 26):
        failures.append(f"hsc of subdivision = {h_sd.entries}")
    if is_real_rooted(h_sd.polynomial()):
        failures.append("subdivided polynomial reported real-rooted")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _report(1, failures, elapsed, "hsc(cube boundary 3) and real-rootedness")


def test_criterion_2_fvector_transform_vs_enumeration(corpus):
    t0 = time.perf_counter()
    failures = []
    for name, K in corpus:
        predicted = f_of_subdivision(f_vector(K)).entries
        brute = brute_force_interval_fvector(K)
        if predicted != brute:
            failures.append(f"{name}: {predicted} vs {brute}")
        constructed = f_vector(subdivide(K)).entries
        if predicted != constructed:
            failures.append(f"{name}: {predicted} vs constructed {constructed}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, limit 10s")
    _report(2, failures, elapsed, f"f-vector transform on {len(corpus)} complexes")


def test_criterion_3_short_transform_vs_subdivision(corpus):
    t0 = time.perf_counter()
    failures = []
    for h, expected in (
        ((2, 0), (3, 1)),
        ((4, 0, 0), (9, 6, 1)),
        ((8, 8, 8), (26, 44, 26)),
    ):
        got = hsc_of_subdivision(ShortHVector(h)).entries
        if got != expected:
            failures.append(f"{h} -> {got}, expected {expected}")
    for name, K in corpus:
        via_matrix = hsc_of_subdivision(hsc_from_f(f_vector(K)))
        via_complex = hsc_from_f(f_vector(subdivide(K)))
        if via_matrix != via_complex:
            failures.append(
                f"{name}: {via_matrix.entries} vs {via_complex.entries}"
            )
    _report(3, failures, time.perf_counter() - t0, "short h-vector transform")


def test_criterion_4_long_transform_vs_subdivision(corpus):
    t0 = time.perf_counter()
    failures = []
    for h, expected in (
        ((4, 4, 4, 4), (4, 22, 22, 4)),
        ((4, 0, 0, 0), (4, 5, 1, 0)),
    ):
        got = hc_of_subdivision(LongHVector(h)).entries
        if got != expected:
            failures.append(f"{h} -> {got}, expected {expected}")
    for name, K in corpus:
        via_matrix = hc_of_subdivision(hc_from_hsc(hsc_from_f(f_vector(K))))
        via_complex = hc_from_hsc(hsc_from_f(f_vector(subdivide(K))))
        if via_matrix != via_complex:
            failures.append(
                f"{name}: {via_matrix.entries} vs {via_complex.entries}"
            )
    _report(4, failures, time.perf_counter() - t0, "long h-vector transform")


def test_criterion_5_matrix_properties():
    b_matrix.cache_clear()
    c_matrix.cache_clear()
    t0 = time.perf_counter()
    failures = []
    for d in range(1, 11):
        B = b_matrix(d)
        for i in range(d):
            for j in range(d):
                if B.entries[i][j] < 0:
                    failures.append(f"B({d},{i},{j}) negative")
                if B.entries[i][j] != B.entries[d - 1 - i][d - 1 - j]:
                    failures.append(f"B({d}) symmetry fails at ({i},{j})")
        for j in range(d):
            if sum(B.entries[i][j] for i in range(d)) != 2 ** (d - 1):
                failures.append(f"B({d}) column {j} sum wrong")
        try:
            C = c_matrix(d)  # internally cross-checks all three routes
        except RuntimeError as exc:
            failures.append(f"C({d}) cross-check: {exc}")
            continue
        if _over(*_c_alternating_sums(d)) != C.entries:
            failures.append(f"C({d}) alternating sums disagree")
        if C.entries[0] != tuple([1] + [0] * d):
            failures.append(f"C({d}) row 0 wrong")
        for i in range(d + 1):
            for j in range(d + 1):
                if C.entries[i][j] < 0:
                    failures.append(f"C({d},{i},{j}) negative")
                if C.entries[d - i][d - j] != C.entries[i][j]:
                    failures.append(f"C({d}) symmetry fails at ({i},{j})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, limit 5s")
    _report(5, failures, elapsed, "matrix properties for d = 1..10")


def test_criterion_6_identity_suite(corpus):
    t0 = time.perf_counter()
    failures = []
    for name, K in corpus:
        f = f_vector(K)
        d = f.d
        h = hsc_from_f(f)
        fp, hp = f.polynomial(), h.polynomial()
        if hp != mobius_transform(fp, 2, 0, -1, 1, d - 1):
            failures.append(f"{name}: f -> hsc substitution identity")
        if 2 ** (d - 1) * fp != mobius_transform(hp, 1, 0, 1, 2, d - 1):
            failures.append(f"{name}: hsc -> f substitution identity")
        hc = hc_from_hsc(h)  # raises if recursion and closed form disagree
        for i in range(1, d + 1):
            closed = sum(
                (-1) ** (i + j - 1) * h.entries[j] for j in range(i)
            ) + (-1) ** i * 2 ** (d - 1)
            if hc.entries[i] != closed:
                failures.append(f"{name}: closed form differs at {i}")
        if not check_long_short_identity(f):
            failures.append(f"{name}: long-short polynomial identity")
        if euler_reduced(f_vector(subdivide(K))) != euler_reduced(f):
            failures.append(f"{name}: Euler characteristic changed")
        if sum(h.entries) != 2 ** (d - 1) * f.entries[-1]:
            failures.append(f"{name}: hsc sum")
    _report(6, failures, time.perf_counter() - t0, "identity suite")


def test_criterion_7_iterate_closed_form(corpus):
    t0 = time.perf_counter()
    failures = []
    for name, K in corpus:
        h = hsc_from_f(f_vector(K))
        v = h
        for n in range(4):
            if hsc_poly_of_iterate(h, n) != v.polynomial():
                failures.append(f"{name}: iterate n={n}")
            v = hsc_of_subdivision(v)
        for m, n in ((1, 1), (1, 2), (2, 1)):
            w = h
            for _ in range(n):
                w = hsc_of_subdivision(w)
            if hsc_poly_of_iterate(h, m + n) != hsc_poly_of_iterate(w, m):
                failures.append(f"{name}: semigroup ({m},{n})")
    _report(7, failures, time.perf_counter() - t0, "iterate closed form")


def test_criterion_8_limits():
    t0 = time.perf_counter()
    failures = []
    import itertools

    cases = [
        ("cube_boundary_3", gen_cube_boundary(3), True),
        (
            "block_2x2x2",
            from_voxels(VoxelSpec(3, tuple(itertools.product((0, 1), repeat=3)))),
            False,
        ),
    ]
    for name, K, expect_symmetric in cases:
        f = f_vector(K)
        d, f_top, chi = f.d, f.entries[-1], euler_reduced(f)
        h = hsc_from_f(f)
        hc = hc_from_hsc(h)
        ds = [limit_distance_hsc(h, f_top, n) for n in range(21)]
        dc = [limit_distance_hc(hc, f_top, chi, n) for n in range(21)]
        if not all(b < a for a, b in zip(ds, ds[1:])):
            failures.append(f"{name}: short distances not strictly decreasing")
        if not all(b < a for a, b in zip(dc, dc[1:])):
            failures.append(f"{name}: long distances not strictly decreasing")
        scale = Fraction(1, 2 ** (20 * (d - 1)))
        v20 = [x * scale for x in hsc_poly_of_iterate(h, 20).padded(d)]
        w20 = [x * scale for x in hc_poly_of_iterate(h, chi, 20).padded(d + 1)]
        for label, vec in (("hsc", v20), ("hc", w20)):
            shapes = shape_predicates(vec)
            if not shapes["nonnegative"]:
                failures.append(f"{name}: level-20 {label} has negative entry")
            if not shapes["unimodal"]:
                failures.append(f"{name}: level-20 {label} not unimodal")
            if shapes["symmetric"] != expect_symmetric:
                failures.append(
                    f"{name}: level-20 {label} symmetric={shapes['symmetric']}"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, limit 5s")
    _report(8, failures, elapsed, "limit distances for n = 0..20")


def test_criterion_9_real_rootedness_preservation():
    t0 = time.perf_counter()
    failures = []
    # 2-edge path: root -5/3 of the subdivided polynomial maps to -3
    path = from_voxels(VoxelSpec(1, ((0,), (1,))))
    h = hsc_from_f(f_vector(path))
    h_sd = hsc_of_subdivision(h)
    if h.entries != (3, 1) or h_sd.entries != (5, 3):
        failures.append(f"path vectors: {h.entries}, {h_sd.entries}")
    if not (is_real_rooted(h.polynomial()) and is_real_rooted(h_sd.polynomial())):
        failures.append("path polynomials not both real-rooted")
    roots = rational_roots(h_sd.polynomial())
    if roots != [Fraction(-5, 3)]:
        failures.append(f"subdivided root set {roots}")
    image = (3 * Fraction(-5, 3) + 1) / (Fraction(-5, 3) + 3)
    if image != -3 or h.polynomial()(image) != 0:
        failures.append(f"root image {image} is not a root of the original")
    # cube boundary: both non-real-rooted
    K = gen_cube_boundary(3)
    hb = hsc_from_f(f_vector(K))
    if is_real_rooted(hb.polynomial()):
        failures.append("cube boundary hsc reported real-rooted")
    if is_real_rooted(hsc_of_subdivision(hb).polynomial()):
        failures.append("subdivided cube boundary hsc reported real-rooted")
    # 50 random voxel complexes, fixed seed, dims 2 and 3
    for dim, seed in ((2, 1201), (3, 1202)):
        for spec, K in random_voxel_complexes(seed, dim, 25):
            p = hsc_from_f(f_vector(K)).polynomial()
            q = hsc_from_f(f_vector(subdivide(K))).polynomial()
            if is_real_rooted(p) != is_real_rooted(q):
                failures.append(f"disagreement on voxels {spec.corners}")
    _report(9, failures, time.perf_counter() - t0, "real-rootedness preservation")


def test_criterion_10_nothing_further():
    print(
        "ACCEPTANCE 10: PASS (0.00s) no large-scale experiments exist to "
        "reproduce; criteria 2-9 are the property gate"
    )
