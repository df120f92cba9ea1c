"""Command-line interface.

Commands compose over pipes: complexes travel as JSON on stdin/stdout,
so generation, subdivision, vector computation, and verification can be
chained and each identity stays independently scriptable.

Exit codes: 0 success; 1 I/O, parse, or argument failure; 2 invalid
complex; 3 face, bit or byte budget exceeded; 4 coefficient-matrix
cross-check failure, in any command that builds C(d); 5 verification
suite failure. Oversize input exits 3 before anything is built: gen
--cube D and --cube-boundary D (3^D faces) and gen --voxels with a dim D
line (one D-cube alone has 3^D faces) against the default face budget,
mine --dim D when a trial's 10^D bitset bits exceed 10^9, so mine takes
D <= 9, limit --max-n N, before its first row, when a row's distance
projects an integer over 4300 digits, which Python will not print, and
coeffs -d D when its output projects over 10^7 bytes, so coeffs takes
D <= 221 (B) or D <= 220 (C). verify exits 3 before subdividing a stdin
complex whose subdivision projects over the default face budget.

A failed read of stdin or write of stdout, or a closed one, exits 1 like
any other I/O failure, with one line on stderr.

python -m cubary runs with the cyclic collector off, as nothing a command
makes forms a reference cycle; main() called from Python keeps the
caller's setting.

mine builds no complex and loads no poset layer: it counts each draw's
faces from one bitset of its cells, builds corner tuples only for a
finding, and evaluates each distinct f-vector once. On a 2-CPU Xeon VM
with Python 3.11 it ran about 1,000 trials/s at --dim 6, 45 at --dim 8
and 5 at --dim 9 (25 MB).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

# Only what the parser and main() need is imported here. Each command
# imports the layers it calls when it runs, so a process loads (and,
# without a bytecode cache, compiles) only those.
from ._base import DEFAULT_FACE_BUDGET, SUITES

if TYPE_CHECKING:
    from fractions import Fraction

    from .complex_core import CubicalComplex

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_CROSSCHECK = 4
EXIT_VERIFY = 5

# bits one mine trial may build: 10^9 admits --dim 9 (0.2 s a trial, 25 MB
# a process on a 2-CPU Xeon VM). With D + 1 bitsets alive at once, the 10^D
# bits bound the work, not the memory: a --dim 10 trial takes ten times longer
MINE_BIT_BUDGET = 10**9

# str() of an int over 4300 digits raises (Python's default
# sys.get_int_max_str_digits); an int of at most (10**4300).bit_length() - 1
# bits has at most 4300 digits, so every limit distance within it prints
LIMIT_BIT_BUDGET = 14284

# bytes coeffs may print: the order of limit's largest admitted output;
# admits every d <= 200 for both matrices (C(200) prints about 6.3 MB)
COEFFS_BYTE_BUDGET = 10**7


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


class _Failure(Exception):
    """A command's failure; main() prints the message and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _complex_from_stdin() -> CubicalComplex:
    """The complex on stdin: exit 1 if it does not parse, 2 if it is invalid."""
    from .complex_core import CubicalComplex, validate

    if sys.stdin is None:
        raise _Failure(EXIT_INPUT, "I/O error: stdin is closed")
    try:
        K = CubicalComplex.from_json(sys.stdin.read())
        report = validate(K)
    except ValueError as exc:
        raise _Failure(EXIT_INPUT, str(exc)) from exc
    if not report.ok:
        raise _Failure(EXIT_INVALID, "invalid complex: " + "; ".join(report.violations))
    return K


def _check_budget(
    what: str, base: int, dim: int, less: int = 0, unit: str = "face",
    budget: int = DEFAULT_FACE_BUDGET,
) -> None:
    """Exit 3, before building anything, when base^dim - less units (faces
    by default) exceed the budget; min() keeps a huge dim from building a
    huge power just to compare it."""
    if dim >= 0 and base ** min(dim, 64) - less > budget:
        count = f"{base}^{dim}" + (f" - {less}" if less else "")
        raise _Failure(
            EXIT_BUDGET,
            f"{what} projects {count} {unit}s, exceeding the {unit} budget of {budget}",
        )


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def cmd_gen(args) -> int:
    from .complex_core import from_voxels, gen_cube, gen_cube_boundary, parse_voxel_text, validate

    try:
        if args.cube is not None:
            _check_budget(f"--cube {args.cube}", 3, args.cube)
            K = gen_cube(args.cube)
        elif args.cube_boundary is not None:
            _check_budget(f"--cube-boundary {args.cube_boundary}", 3, args.cube_boundary, 1)
            K = gen_cube_boundary(args.cube_boundary)
        else:
            with open(args.voxels, "r", encoding="utf-8") as fh:
                spec = parse_voxel_text(fh.read())
            # every voxel complex has at least the 3^D faces of one D-cube
            _check_budget(f"--voxels dim {spec.ambient_dim}", 3, spec.ambient_dim)
            K = from_voxels(spec)
    except (OSError, ValueError) as exc:
        raise _Failure(EXIT_INPUT, str(exc)) from exc
    report = validate(K)
    if not report.ok:
        raise _Failure(EXIT_INVALID, f"generated complex failed validation: {report.violations[0]}")
    print(K.to_json())
    return EXIT_OK


def cmd_subdivide(args) -> int:
    from .subdivision import FaceBudgetExceeded, subdivide_n

    if args.budget < 0:
        raise _Failure(EXIT_INPUT, "budget must be >= 0")
    if args.n < 0:
        raise _Failure(EXIT_INPUT, "n must be >= 0")
    try:
        K = subdivide_n(_complex_from_stdin(), args.n, face_budget=args.budget)
    except FaceBudgetExceeded as exc:
        raise _Failure(EXIT_BUDGET, str(exc)) from exc
    print(K.to_json())
    return EXIT_OK


def cmd_vectors(args) -> int:
    from .face_vectors import summary
    from .polytools import shape_predicates

    payload = summary(_complex_from_stdin())
    payload["hsc_shape"] = shape_predicates(payload["hsc"])
    payload["hc_shape"] = shape_predicates(payload["hc"])
    _emit(payload)
    return EXIT_OK


def _digits_of_power_of_two(k: int) -> int:
    """An upper bound on the decimal digits of 2^k, from 0.30103 > log10(2)."""
    return k * 30103 // 100000 + 1


def _coeffs_bytes(matrix: str, d: int) -> int:
    """An upper bound on the bytes coeffs prints for B(d) or C(d).

    Every entry is n/2^(d-1) with 0 <= n <= 4^(d-1): the entries are
    nonnegative and each column sums to at most 2^(d-1), its generating
    polynomial's value at x = 1. So an entry prints at most
    digits(4^(d-1)) + digits(2^(d-1)) characters, plus a slash, two
    quotes and a comma; each row adds two brackets and a comma.
    """
    size = d if matrix == "B" else d + 1
    entry = _digits_of_power_of_two(2 * (d - 1)) + _digits_of_power_of_two(d - 1) + 4
    header = len(f'{{"kind":"{matrix}","d":{d},"entries":[]}}\n')
    return size * size * entry + 3 * size + header


def cmd_coeffs(args) -> int:
    if args.d < 1:
        raise _Failure(EXIT_INPUT, "d must be >= 1")
    projected = _coeffs_bytes(args.matrix, args.d)
    if projected > COEFFS_BYTE_BUDGET:
        raise _Failure(
            EXIT_BUDGET,
            f"-d {args.d} projects up to {projected} bytes of output, "
            f"exceeding the byte budget of {COEFFS_BYTE_BUDGET}",
        )
    from .transform import b_matrix, c_matrix

    M = b_matrix(args.d) if args.matrix == "B" else c_matrix(args.d)
    _emit(M.to_json_obj())
    return EXIT_OK


def cmd_verify(args) -> int:
    from .subdivision import FaceBudgetExceeded
    from .verify import run_suites

    if args.corpus is not None:
        from .corpus import default_corpus

        complexes = default_corpus()
    else:
        complexes = [("stdin", _complex_from_stdin())]
    try:
        report = run_suites(args.suite, complexes)
    except FaceBudgetExceeded as exc:
        raise _Failure(EXIT_BUDGET, str(exc)) from exc
    _emit(report)
    if not report["ok"]:
        first = next(r for r in report["checks"] if not r["ok"])
        raise _Failure(
            EXIT_VERIFY,
            f"check {first['check']} failed on {first['item']}: {first['detail']}",
        )
    return EXIT_OK


def _decimal10(x: Fraction) -> str:
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 10
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def cmd_limit(args) -> int:
    from .face_vectors import euler_reduced, f_vector, hsc_from_f
    from .polytools import shape_predicates
    from .transform import _distance_bits, _limit_rows

    if args.max_n < 0:
        raise _Failure(EXIT_INPUT, "max-n must be >= 0")
    f = f_vector(_complex_from_stdin())
    d = f.d
    hsc = hsc_from_f(f)
    if args.which == "hc" and d < 2:
        raise _Failure(EXIT_INPUT, "long h-vector limits need d >= 2")
    f_top = f.entries[-1]
    chi = euler_reduced(f)
    bits = _distance_bits(hsc, f_top, chi, args.max_n)
    if bits > LIMIT_BIT_BUDGET:
        raise _Failure(
            EXIT_BUDGET,
            f"--max-n {args.max_n} projects distances of up to {bits} bits, "
            f"exceeding the budget of {LIMIT_BIT_BUDGET} bits (4300 digits)",
        )
    rows = []
    euler = chi if args.which == "hc" else None
    # a row's numerators share one positive denominator, so keep its shapes
    for n, (nums, dist) in enumerate(_limit_rows(hsc, f_top, euler, range(args.max_n + 1))):
        shapes = shape_predicates(nums)
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
    _emit({"which": args.which, "d": d, "rows": rows})
    return EXIT_OK


def _evaluate(target: str, f: tuple[int, ...]):
    """A draw's verdict, which depends on its f-vector alone.

    None when the target vector (short h-vector for "unimodality", long
    for "realroot") has a negative entry, so the draw is skipped; else
    (vector, subdivided vector, whether the subdivided one has the
    property).
    """
    from .face_vectors import FVector, hc_from_hsc, hsc_from_f
    from .polytools import is_real_rooted, shape_predicates
    from .transform import hc_of_subdivision, hsc_of_subdivision

    hsc = hsc_from_f(FVector(f))
    if target == "unimodality":
        vec = hsc.entries
        if not all(x >= 0 for x in vec):
            return None
        out = hsc_of_subdivision(hsc).entries
        return vec, out, shape_predicates(out)["unimodal"]
    hc = hc_from_hsc(hsc)
    vec = hc.entries
    if not all(x >= 0 for x in vec):
        return None
    out = hc_of_subdivision(hc)
    return vec, out.entries, is_real_rooted(out.polynomial())


def cmd_mine(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise _Failure(EXIT_INPUT, "seed must be a 64-bit unsigned integer")
    if args.dim < 1:
        raise _Failure(EXIT_INPUT, "dim must be >= 1")
    if args.trials < 0:
        raise _Failure(EXIT_INPUT, "trials must be >= 0")
    # a trial walks 2^dim bitsets of 5^dim bits each, at most dim + 1 alive
    _check_budget(f"--dim {args.dim}", 10, args.dim, unit="bit", budget=MINE_BIT_BUDGET)
    import random

    from .corpus import _corners, _draw, _f_counts

    rng = random.Random(args.seed)
    # small draws repeat f-vectors often; bounded, as at dim >= 5 all differ
    evaluate = functools.lru_cache(maxsize=4096)(_evaluate)
    findings = 0
    for trial in range(args.trials):
        cells = _draw(rng, args.dim)
        f = tuple(_f_counts(args.dim, cells))
        verdict = evaluate(args.target, f)
        if verdict is None:
            continue
        vec, out, ok = verdict
        if not ok:
            findings += 1
            _emit(
                {
                    "type": "finding",
                    "trial": trial,
                    "target": args.target,
                    "dim": args.dim,
                    "corners": [list(c) for c in _corners(args.dim, cells)],
                    "f": list(f),
                    "vector": [str(x) for x in vec],
                    "subdivided_vector": [str(x) for x in out],
                }
            )
    _emit(
        {
            "type": "summary",
            "target": args.target,
            "dim": args.dim,
            "trials": args.trials,
            "seed": args.seed,
            "findings": findings,
        }
    )
    return EXIT_OK


@functools.cache  # one parser per process: each leaves objects in reference cycles
def build_parser() -> _Parser:
    p = _Parser(prog="cubary", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a complex as JSON")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--cube", type=int, metavar="D", help="all faces of the D-cube")
    src.add_argument(
        "--cube-boundary", type=int, metavar="D", help="proper faces of the D-cube"
    )
    src.add_argument("--voxels", metavar="FILE", help="voxel text file")
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("subdivide", help="barycentrically subdivide a complex n times")
    s.add_argument("-n", type=int, required=True, help="number of rounds (>= 0)")
    s.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_FACE_BUDGET,
        help=f"face budget per constructed step (default {DEFAULT_FACE_BUDGET})",
    )
    s.set_defaults(fn=cmd_subdivide)

    v = sub.add_parser("vectors", help="f, short/long h-vectors, Euler characteristic")
    v.set_defaults(fn=cmd_vectors)

    c = sub.add_parser("coeffs", help="dump a transform coefficient matrix")
    c.add_argument("--matrix", choices=("B", "C"), required=True)
    c.add_argument("-d", type=int, required=True)
    c.set_defaults(fn=cmd_coeffs)

    w = sub.add_parser("verify", help="run identity/oracle suites")
    w.add_argument("--suite", choices=SUITES + ("all",), default="all")
    w.add_argument(
        "--corpus",
        choices=("default",),
        help="run over the built-in corpus instead of a stdin complex",
    )
    w.set_defaults(fn=cmd_verify)

    li = sub.add_parser("limit", help="distances to the iterated-subdivision limit")
    li.add_argument("--max-n", type=int, required=True, dest="max_n")
    li.add_argument("--which", choices=("hsc", "hc"), default="hsc")
    li.set_defaults(fn=cmd_limit)

    m = sub.add_parser(
        "mine",
        help="random search for counterexamples",
        description=(
            "Random model: each unit cube of the side-4 grid in the given "
            "dimension is kept independently with probability 1/2 (empty "
            "draws are redrawn). Complexes whose target vector has a "
            "negative entry are skipped. Findings and a trailing summary "
            "are emitted as JSON lines; output is a pure function of the "
            "arguments."
        ),
    )
    m.add_argument("--target", choices=("unimodality", "realroot"), required=True)
    m.add_argument("--dim", type=int, required=True)
    m.add_argument("--trials", type=int, required=True)
    m.add_argument("--seed", type=int, required=True, help="64-bit unsigned integer")
    m.set_defaults(fn=cmd_mine)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if sys.stdout is None:
            raise _Failure(EXIT_INPUT, "I/O error: stdout is closed")
        return args.fn(args)
    except SystemExit as exc:  # from argparse: usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except _Failure as exc:
        code, message = exc.code, str(exc)
    except RuntimeError as exc:  # c_matrix or hc_from_hsc disagreeing with a cross-check
        code, message = EXIT_CROSSCHECK, f"cross-check failure: {exc}"
    except OSError as exc:  # reading stdin or writing stdout
        code, message = EXIT_INPUT, f"I/O error: {exc}"
    print(f"cubary: error: {message}", file=sys.stderr)
    return code
