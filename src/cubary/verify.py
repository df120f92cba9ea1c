"""Verification sweeps: each suite checks one family of identities by
playing the closed-form transforms against brute-force construction (or
against an independent formula) on given complexes."""

from __future__ import annotations

from functools import cached_property

from ._base import DEFAULT_FACE_BUDGET, SUITES
from .complex_core import CubicalComplex
from .face_vectors import (
    _hc_mismatch,
    _hc_recursion,
    check_long_short_identity,
    euler_reduced,
    f_vector,
    hsc_from_f,
)
from .polytools import (
    is_real_rooted,
    mobius_transform,
    rational_roots,
    real_root_count,
    shape_predicates,
)
from .subdivision import subdivide_n
from .transform import (
    b_matrix,
    c_matrix,
    f_of_subdivision,
    hc_of_subdivision,
    hsc_of_subdivision,
    hsc_poly_of_iterate,
)


class _Item:
    """One corpus entry with shared lazily-built derived data."""

    def __init__(self, name: str, K: CubicalComplex):
        self.name = name
        self.K = K
        self.f = f_vector(K)
        self.hsc = hsc_from_f(self.f)
        # the identity suite compares this with the closed form
        self.hc = _hc_recursion(self.hsc)

    @cached_property
    def sd(self) -> CubicalComplex:
        # a stdin complex may be large: raises FaceBudgetExceeded up front
        return subdivide_n(self.K, 1, DEFAULT_FACE_BUDGET)


def _suite_fvec(it: _Item):
    predicted = f_of_subdivision(it.f)
    actual = f_vector(it.sd)
    yield (
        "fvec", predicted == actual,
        f"transform {list(predicted.entries)} vs enumeration {list(actual.entries)}",
    )


def _suite_hsc(it: _Item):
    predicted = hsc_of_subdivision(it.hsc)
    actual = hsc_from_f(f_vector(it.sd))
    yield (
        "hsc", predicted == actual,
        f"matrix {list(predicted.entries)} vs subdivision {list(actual.entries)}",
    )


def _suite_hc(it: _Item):
    predicted = hc_of_subdivision(it.hc)
    actual = _hc_recursion(hsc_from_f(f_vector(it.sd)))
    yield (
        "hc", predicted == actual,
        f"matrix {list(predicted.entries)} vs subdivision {list(actual.entries)}",
    )


def _suite_euler(it: _Item):
    before = euler_reduced(it.f)
    after = euler_reduced(f_vector(it.sd))
    yield "euler", before == after, f"{before} vs {after}"


def _suite_symmetry(it: _Item):
    d = it.f.d
    B = b_matrix(d)
    ok_b = all(
        B.entries[i][j] == B.entries[d - 1 - i][d - 1 - j]
        for i in range(d)
        for j in range(d)
    )
    yield "symmetry/B-matrix", ok_b, f"d={d}"
    C = c_matrix(d)
    ok_c = all(
        C.entries[d - i][d - j] == C.entries[i][j]
        for i in range(d + 1)
        for j in range(d + 1)
    )
    yield "symmetry/C-matrix", ok_c, f"d={d}"
    for label, vec, out in (
        ("hsc", it.hsc.entries, hsc_of_subdivision(it.hsc).entries),
        ("hc", it.hc.entries, hc_of_subdivision(it.hc).entries),
    ):
        if shape_predicates(vec)["symmetric"]:
            ok = shape_predicates(out)["symmetric"]
            yield f"symmetry/{label}", ok, f"{list(vec)} -> {list(out)}"
        else:
            yield f"symmetry/{label}", True, f"{label} not symmetric; vacuous"


def _suite_realroot(it: _Item):
    d = it.f.d
    p = it.hsc.polynomial()
    q = hsc_of_subdivision(it.hsc).polynomial()
    # the substitution identity behind root correspondence
    ok_sub = 2 ** (d - 1) * q == mobius_transform(p, 3, 1, 1, 3, d - 1)
    yield "realroot/substitution", ok_sub, f"d={d}"
    rp, rq = is_real_rooted(p), is_real_rooted(q)
    yield "realroot/preserved", rp == rq, f"{rp} vs {rq}"
    if p.degree == q.degree:
        cp, cq = real_root_count(p), real_root_count(q)
        yield "realroot/count", cp == cq, f"{cp} vs {cq}"
    mapped = []
    for r in rational_roots(q):
        if r == -3:
            continue
        image = (3 * r + 1) / (r + 3)
        mapped.append((r, image, p(image) == 0))
    yield (
        "realroot/root-map", all(m[2] for m in mapped),
        "; ".join(f"{r} -> {img}" for r, img, _ in mapped) or "no rational roots",
    )


def _suite_identity(it: _Item):
    d = it.f.d
    fp = it.f.polynomial()
    hp = it.hsc.polynomial()
    yield "identity/hsc-from-f-poly", hp == mobius_transform(fp, 2, 0, -1, 1, d - 1), ""
    ok3 = 2 ** (d - 1) * fp == mobius_transform(hp, 1, 0, 1, 2, d - 1)
    yield "identity/f-from-hsc-poly", ok3, ""
    mismatch = _hc_mismatch(it.hsc, it.hc)
    yield "identity/hc-recursion-vs-closed", not mismatch, mismatch
    yield "identity/long-short", check_long_short_identity(it.f), ""
    yield "identity/hsc-sum", sum(it.hsc.entries) == 2 ** (d - 1) * it.f.entries[-1], ""
    yield "identity/hc-top", it.hc.entries[-1] == (-2) ** (d - 1) * euler_reduced(it.f), ""


def _suite_iterate(it: _Item):
    v = it.hsc
    for n in range(4):
        closed = hsc_poly_of_iterate(it.hsc, n)
        yield (
            f"iterate/closed-form-n{n}", closed == v.polynomial(),
            f"{closed} vs {v.polynomial()}",
        )
        v = hsc_of_subdivision(v)
    for m, n in ((1, 1), (1, 2), (2, 1)):
        w = it.hsc
        for _ in range(n):
            w = hsc_of_subdivision(w)
        ok = hsc_poly_of_iterate(it.hsc, m + n) == hsc_poly_of_iterate(w, m)
        yield f"iterate/semigroup-{m}+{n}", ok, ""


# each suite yields (check, ok, detail) for one _Item
_SUITE_FNS = {
    "fvec": _suite_fvec,
    "hsc": _suite_hsc,
    "hc": _suite_hc,
    "euler": _suite_euler,
    "symmetry": _suite_symmetry,
    "realroot": _suite_realroot,
    "identity": _suite_identity,
    "iterate": _suite_iterate,
}
if tuple(_SUITE_FNS) != SUITES:
    raise ImportError(f"verify suites {tuple(_SUITE_FNS)} differ from SUITES {SUITES}")


def run_suites(
    suite: str, complexes: list[tuple[str, CubicalComplex]]
) -> dict:
    """Run one suite (or "all") over named complexes; returns the report."""
    names = list(SUITES) if suite == "all" else [suite]
    if any(s not in _SUITE_FNS for s in names):
        raise ValueError(f"unknown suite {suite!r}")
    records: list[dict] = []
    for name, K in complexes:
        it = _Item(name, K)
        for s in names:
            for check, ok, detail in _SUITE_FNS[s](it):
                records.append({"item": name, "check": check, "ok": bool(ok), "detail": detail})
    return {
        "suite": suite,
        "items": [name for name, _ in complexes],
        "checks": records,
        "ok": all(r["ok"] for r in records),
    }
