"""Library-call driver for the closed_form workload.

The CLI does not expose the iterate closed form together with the root
routines, so this process calls them through the public API, as a library
user would: for each case it takes a short h-vector (given directly, or
computed from a voxel complex), forms `hsc_poly_of_iterate(h, n)` for each
requested n, and reports `is_real_rooted` and `rational_roots` of it.

Run as ``python3 perfbench/driver.py CASES.json`` with ``src`` on
PYTHONPATH. Each output line is one JSON object; the coefficients and
roots are exact rationals written as strings, so the benchmark can
confirm every root by exact evaluation.
"""

from __future__ import annotations

import json
import sys

from tracer import NULL, coeff_bits

from cubary import (
    ShortHVector,
    VoxelSpec,
    f_vector,
    from_voxels,
    hsc_from_f,
    hsc_poly_of_iterate,
    is_real_rooted,
    rational_roots,
)


def drive(cases: list[dict], tracer=NULL) -> None:
    for case in cases:
        if "corners" in case:
            with tracer.span("complex_core.build"):
                K = from_voxels(VoxelSpec(case["dim"], tuple(map(tuple, case["corners"]))))
            tracer.count("complex_core.build.faces", len(K))
            with tracer.span("face_vectors"):
                h = hsc_from_f(f_vector(K))
        else:
            h = ShortHVector(tuple(case["hsc"]))
        for n in case["ns"]:
            with tracer.span("transform.iterate"):
                p = hsc_poly_of_iterate(h, n)
            with tracer.span("polytools.sturm"):
                rooted = is_real_rooted(p)
            with tracer.span("polytools.rational_roots"):
                roots = rational_roots(p)
            if tracer.on:
                bits = coeff_bits(p.coeffs)
                tracer.max("transform.coeff_bits.max", bits)
                tracer.max("polytools.coeff_bits.max", bits)
            with tracer.span("cli.emit"):
                line = {
                    "label": case["label"],
                    "n": n,
                    "poly": [str(c) for c in p.coeffs],
                    "real_rooted": rooted,
                    "roots": [str(r) for r in roots],
                }
                print(json.dumps(line, separators=(",", ":")))


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        drive(json.load(fh))
