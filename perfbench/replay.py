"""Replay one benchmark operation inside a fresh process.

    python3 perfbench/replay.py main  OP.json RESULT.json < STDIN
    python3 perfbench/replay.py trace OP.json RESULT.json < STDIN

`main` times the in-process call `cubary.cli.main(argv)` (or the driver's
work) with nothing traced. `trace` makes the same public calls that the
CLI command makes, in the same order, each wrapped in a span named after
the layer it enters, and writes the spans and counters to RESULT.json at
the end. Both modes print the command's stdout, which the benchmark
checks against the recorded digest, so a replay that drifts from the CLI
shows as a failed operation. A fresh process per operation keeps the
`lru_cache` on `b_matrix`/`c_matrix` cold, as it is for a CLI user.
"""

from __future__ import annotations

import json
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from time import perf_counter

from driver import drive
from tracer import Tracer, coeff_bits

from cubary import (
    DEFAULT_FACE_BUDGET,
    CubicalComplex,
    b_matrix,
    c_matrix,
    f_vector,
    from_voxels,
    gen_cube,
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
    parse_voxel_text,
    shape_predicates,
    subdivide_n,
    summary,
    validate,
)
from cubary.cli import main as cli_main
from cubary.corpus import bernoulli_voxel_spec, default_corpus
from cubary.verify import run_suites


def _emit(t, obj) -> None:
    with t.span("cli.emit"):
        print(json.dumps(obj, separators=(",", ":")))


def _read_complex(t) -> CubicalComplex:
    with t.span("complex_core.json_decode"):
        text = sys.stdin.read()
        K = CubicalComplex.from_json(text)
    t.count("complex_core.json.bytes", len(text))
    return _validated(t, K)


def _validated(t, K: CubicalComplex) -> CubicalComplex:
    with t.span("complex_core.validate"):
        report = validate(K)
    t.count("complex_core.validate.faces", len(K))
    if not report.ok:
        raise SystemExit(f"invalid complex: {report.violations[0]}")
    return K


def _emit_complex(t, K: CubicalComplex) -> None:
    with t.span("complex_core.json_encode"):
        text = json.dumps(K.to_json_obj(), separators=(",", ":"))
    t.count("complex_core.json.bytes", len(text))
    with t.span("cli.emit"):
        print(text)


def r_gen(t, o) -> None:
    with t.span("complex_core.build"):
        if "--cube" in o:
            K = gen_cube(int(o["--cube"]))
        elif "--cube-boundary" in o:
            K = gen_cube_boundary(int(o["--cube-boundary"]))
        else:
            with open(o["--voxels"], encoding="utf-8") as fh:
                K = from_voxels(parse_voxel_text(fh.read()))
    t.count("complex_core.build.faces", len(K))
    _emit_complex(t, _validated(t, K))


def r_subdivide(t, o) -> None:
    K = _read_complex(t)
    with t.span("subdivision.subdivide"):
        K = subdivide_n(K, int(o["-n"]), face_budget=DEFAULT_FACE_BUDGET)
    t.count("subdivision.faces_out", len(K))
    t.count("subdivision.key_chars", sum(map(len, K.keys)))
    _emit_complex(t, K)


def r_vectors(t, o) -> None:
    K = _read_complex(t)
    with t.span("face_vectors"):
        payload = summary(K)
    with t.span("polytools.shape"):
        payload["hsc_shape"] = shape_predicates(payload["hsc"])
        payload["hc_shape"] = shape_predicates(payload["hc"])
    _emit(t, payload)


def r_coeffs(t, o) -> None:
    d = int(o["-d"])
    build = b_matrix if o["--matrix"] == "B" else c_matrix
    with t.span(f"transform.{build.__name__}"):
        M = build(d)
    t.max("transform.coeff_bits.max", coeff_bits(x for row in M.entries for x in row))
    _emit(t, M.to_json_obj())


def r_verify(t, o) -> None:
    with t.span("complex_core.build"):
        complexes = default_corpus()
    t.count("complex_core.build.faces", sum(len(K) for _, K in complexes))
    with t.span("verify.run_suites"):
        report = run_suites(o["--suite"], complexes)
    _emit(t, report)


def _decimal10(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 10
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def r_limit(t, o) -> None:
    K = _read_complex(t)
    with t.span("face_vectors"):
        f = f_vector(K)
        hsc = hsc_from_f(f)
    d, f_top = f.d, f.entries[-1]
    chi = -1 + sum((-1) ** i * fi for i, fi in enumerate(f.entries))
    rows = []
    for n in range(int(o["--max-n"]) + 1):
        scale = Fraction(1, 2 ** (n * (d - 1)))
        if o["--which"] == "hsc":
            with t.span("transform.limit"):
                dist = limit_distance_hsc(hsc, f_top, n)
            with t.span("transform.iterate"):
                poly = hsc_poly_of_iterate(hsc, n)
                vec = [x * scale for x in poly.padded(d)]
        else:
            with t.span("face_vectors"):
                hc = hc_from_hsc(hsc)
            with t.span("transform.limit"):
                dist = limit_distance_hc(hc, f_top, chi, n)
            with t.span("transform.iterate"):
                poly = hc_poly_of_iterate(hsc, chi, n)
                vec = [x * scale for x in poly.padded(d + 1)]
        t.max("transform.coeff_bits.max", coeff_bits(poly.coeffs))
        with t.span("polytools.shape"):
            shapes = shape_predicates(vec)
        with t.span("cli.emit"):
            rows.append(
                {
                    "n": n,
                    "distance": str(dist),
                    "distance_decimal": _decimal10(dist),
                    "nonnegative": shapes["nonnegative"],
                    "symmetric": shapes["symmetric"],
                    "unimodal": shapes["unimodal"],
                }
            )
    _emit(t, {"which": o["--which"], "d": d, "rows": rows})


def r_mine(t, o) -> None:
    target, dim = o["--target"], int(o["--dim"])
    trials, seed = int(o["--trials"]), int(o["--seed"])
    rng = random.Random(seed)
    findings = 0
    matrix_built = False
    for trial in range(trials):
        with t.span("corpus.draw"):
            spec = bernoulli_voxel_spec(rng, dim)
        with t.span("complex_core.build"):
            K = from_voxels(spec)
        t.count("complex_core.build.faces", len(K))
        with t.span("face_vectors"):
            f = f_vector(K)
            hsc = hsc_from_f(f)
            if target == "realroot":
                hc = hc_from_hsc(hsc)
        t.count("mine.trials")
        vec = hsc.entries if target == "unimodality" else hc.entries
        if not all(x >= 0 for x in vec):
            continue
        t.count("mine.evaluated")
        if not matrix_built:
            # The CLI builds the matrix inside its first apply; building it
            # here first, through the same cache, attributes that time.
            build = b_matrix if target == "unimodality" else c_matrix
            with t.span(f"transform.{build.__name__}"):
                M = build(f.d)
            t.max("transform.coeff_bits.max", coeff_bits(x for row in M.entries for x in row))
            matrix_built = True
        if target == "unimodality":
            with t.span("transform.apply"):
                out = hsc_of_subdivision(hsc).entries
            with t.span("polytools.shape"):
                ok = shape_predicates(out)["unimodal"]
        else:
            with t.span("transform.apply"):
                out = hc_of_subdivision(hc).entries
                p = hc_of_subdivision(hc).polynomial()
            t.max("polytools.coeff_bits.max", coeff_bits(p.coeffs))
            with t.span("polytools.sturm"):
                ok = is_real_rooted(p)
        if not ok:
            findings += 1
            _emit(
                t,
                {
                    "type": "finding",
                    "trial": trial,
                    "target": target,
                    "dim": dim,
                    "corners": [list(c) for c in spec.corners],
                    "f": list(f.entries),
                    "vector": [str(x) for x in vec],
                    "subdivided_vector": [str(x) for x in out],
                },
            )
    _emit(
        t,
        {"type": "summary", "target": target, "dim": dim, "trials": trials, "seed": seed, "findings": findings},
    )


REPLAYS = {
    "gen": r_gen,
    "subdivide": r_subdivide,
    "vectors": r_vectors,
    "coeffs": r_coeffs,
    "verify": r_verify,
    "limit": r_limit,
    "mine": r_mine,
}


def _load_cases(op: dict) -> list:
    with open(op["argv"][1], encoding="utf-8") as fh:
        return json.load(fh)


def run_main(op: dict) -> dict:
    if op["kind"] == "driver":
        cases = _load_cases(op)
        start = perf_counter()
        drive(cases)
        return {"rc": 0, "s": perf_counter() - start}
    start = perf_counter()
    rc = cli_main(op["argv"])
    return {"rc": rc, "s": perf_counter() - start}


def run_trace(op: dict) -> dict:
    t = Tracer()
    if op["kind"] == "driver":
        cases = _load_cases(op)
        with t.span("op"):
            drive(cases, t)
    else:
        argv = op["argv"]
        options = dict(zip(argv[1::2], argv[2::2]))
        with t.span("op"):
            REPLAYS[argv[0]](t, options)
    return t.dump()


if __name__ == "__main__":
    mode, op_path, result_path = sys.argv[1:4]
    with open(op_path, encoding="utf-8") as fh:
        op = json.load(fh)
    result = run_main(op) if mode == "main" else run_trace(op)
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    sys.exit(result.get("rc", 0))
