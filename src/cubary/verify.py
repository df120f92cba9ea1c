"""Verification sweeps: each suite checks one family of identities by
playing the closed-form transforms against brute-force construction (or
against an independent formula) on given complexes."""

from __future__ import annotations

from .complex_core import CubicalComplex
from .face_vectors import (
    check_long_short_identity,
    euler_reduced,
    f_vector,
    hc_from_hsc,
    hsc_from_f,
)
from .polytools import (
    is_real_rooted,
    mobius_transform,
    rational_roots,
    real_root_count,
    shape_predicates,
)
from .subdivision import subdivide
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
        self.hc = hc_from_hsc(self.hsc)
        self._sd = None

    @property
    def sd(self) -> CubicalComplex:
        if self._sd is None:
            self._sd = subdivide(self.K)
        return self._sd


def _check(records, item, check, ok, detail):
    records.append({"item": item, "check": check, "ok": bool(ok), "detail": detail})


def _suite_fvec(it: _Item, rec: list):
    predicted = f_of_subdivision(it.f)
    actual = f_vector(it.sd)
    _check(
        rec, it.name, "fvec", predicted == actual,
        f"transform {list(predicted.entries)} vs enumeration {list(actual.entries)}",
    )


def _suite_hsc(it: _Item, rec: list):
    predicted = hsc_of_subdivision(it.hsc)
    actual = hsc_from_f(f_vector(it.sd))
    _check(
        rec, it.name, "hsc", predicted == actual,
        f"matrix {list(predicted.entries)} vs subdivision {list(actual.entries)}",
    )


def _suite_hc(it: _Item, rec: list):
    predicted = hc_of_subdivision(it.hc)
    actual = hc_from_hsc(hsc_from_f(f_vector(it.sd)))
    _check(
        rec, it.name, "hc", predicted == actual,
        f"matrix {list(predicted.entries)} vs subdivision {list(actual.entries)}",
    )


def _suite_euler(it: _Item, rec: list):
    before = euler_reduced(it.f)
    after = euler_reduced(f_vector(it.sd))
    _check(rec, it.name, "euler", before == after, f"{before} vs {after}")


def _suite_symmetry(it: _Item, rec: list):
    d = it.f.d
    B = b_matrix(d)
    ok_b = all(
        B.entries[i][j] == B.entries[d - 1 - i][d - 1 - j]
        for i in range(d)
        for j in range(d)
    )
    _check(rec, it.name, "symmetry/B-matrix", ok_b, f"d={d}")
    C = c_matrix(d)
    ok_c = all(
        C.entries[d - i][d - j] == C.entries[i][j]
        for i in range(d + 1)
        for j in range(d + 1)
    )
    _check(rec, it.name, "symmetry/C-matrix", ok_c, f"d={d}")
    for label, vec, out in (
        ("hsc", it.hsc.entries, hsc_of_subdivision(it.hsc).entries),
        ("hc", it.hc.entries, hc_of_subdivision(it.hc).entries),
    ):
        if shape_predicates(vec)["symmetric"]:
            ok = shape_predicates(out)["symmetric"]
            detail = f"{list(vec)} -> {list(out)}"
        else:
            ok, detail = True, f"{label} not symmetric; vacuous"
        _check(rec, it.name, f"symmetry/{label}", ok, detail)


def _suite_realroot(it: _Item, rec: list):
    d = it.f.d
    p = it.hsc.polynomial()
    q = hsc_of_subdivision(it.hsc).polynomial()
    # the substitution identity behind root correspondence
    ok_sub = 2 ** (d - 1) * q == mobius_transform(p, 3, 1, 1, 3, d - 1)
    _check(rec, it.name, "realroot/substitution", ok_sub, f"d={d}")
    same = is_real_rooted(p) == is_real_rooted(q)
    _check(
        rec, it.name, "realroot/preserved", same,
        f"{is_real_rooted(p)} vs {is_real_rooted(q)}",
    )
    if p.degree == q.degree:
        _check(
            rec, it.name, "realroot/count", real_root_count(p) == real_root_count(q),
            f"{real_root_count(p)} vs {real_root_count(q)}",
        )
    mapped = []
    for r in rational_roots(q):
        if r == -3:
            continue
        image = (3 * r + 1) / (r + 3)
        mapped.append((r, image, p(image) == 0))
    _check(
        rec, it.name, "realroot/root-map", all(m[2] for m in mapped),
        "; ".join(f"{r} -> {img}" for r, img, _ in mapped) or "no rational roots",
    )


def _suite_identity(it: _Item, rec: list):
    d = it.f.d
    fp = it.f.polynomial()
    hp = it.hsc.polynomial()
    ok2 = hp == mobius_transform(fp, 2, 0, -1, 1, d - 1)
    _check(rec, it.name, "identity/hsc-from-f-poly", ok2, "")
    ok3 = 2 ** (d - 1) * fp == mobius_transform(hp, 1, 0, 1, 2, d - 1)
    _check(rec, it.name, "identity/f-from-hsc-poly", ok3, "")
    try:
        hc_from_hsc(it.hsc)
        ok_rec = True
    except RuntimeError:
        ok_rec = False
    _check(rec, it.name, "identity/hc-recursion-vs-closed", ok_rec, "")
    _check(
        rec, it.name, "identity/long-short", check_long_short_identity(it.f), ""
    )
    ok_sum = sum(it.hsc.entries) == 2 ** (d - 1) * it.f.entries[-1]
    _check(rec, it.name, "identity/hsc-sum", ok_sum, "")
    ok_top = it.hc.entries[-1] == (-2) ** (d - 1) * euler_reduced(it.f)
    _check(rec, it.name, "identity/hc-top", ok_top, "")


def _suite_iterate(it: _Item, rec: list):
    v = it.hsc
    for n in range(4):
        closed = hsc_poly_of_iterate(it.hsc, n)
        _check(
            rec, it.name, f"iterate/closed-form-n{n}", closed == v.polynomial(),
            f"{closed} vs {v.polynomial()}",
        )
        v = hsc_of_subdivision(v)
    for m, n in ((1, 1), (1, 2), (2, 1)):
        w = it.hsc
        for _ in range(n):
            w = hsc_of_subdivision(w)
        ok = hsc_poly_of_iterate(it.hsc, m + n) == hsc_poly_of_iterate(w, m)
        _check(rec, it.name, f"iterate/semigroup-{m}+{n}", ok, "")


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
SUITES = tuple(_SUITE_FNS)


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
            _SUITE_FNS[s](it, records)
    return {
        "suite": suite,
        "items": [name for name, _ in complexes],
        "checks": records,
        "ok": all(r["ok"] for r in records),
    }
