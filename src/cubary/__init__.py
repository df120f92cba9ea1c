"""Exact-arithmetic cubical complexes, cubical barycentric subdivision,
and short/long cubical h-vector transforms.

Importing the package loads no submodule: each public name is imported
from its defining submodule on first use (PEP 562), so a command pays
only for the layers it calls.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "CubicalComplex": "complex_core",
    "ValidationReport": "complex_core",
    "VoxelSpec": "complex_core",
    "from_voxels": "complex_core",
    "gen_cube": "complex_core",
    "gen_cube_boundary": "complex_core",
    "parse_voxel_text": "complex_core",
    "validate": "complex_core",
    "FVector": "face_vectors",
    "LongHVector": "face_vectors",
    "ShortHVector": "face_vectors",
    "check_long_short_identity": "face_vectors",
    "euler_reduced": "face_vectors",
    "f_from_hsc": "face_vectors",
    "f_vector": "face_vectors",
    "hc_from_hsc": "face_vectors",
    "hsc_from_f": "face_vectors",
    "hsc_from_hc": "face_vectors",
    "summary": "face_vectors",
    "RatPoly": "polytools",
    "is_real_rooted": "polytools",
    "mobius_transform": "polytools",
    "rational_roots": "polytools",
    "real_root_count": "polytools",
    "shape_predicates": "polytools",
    "DEFAULT_FACE_BUDGET": "_base",
    "FaceBudgetExceeded": "subdivision",
    "subdivide": "subdivision",
    "subdivide_n": "subdivision",
    "CoeffMatrix": "transform",
    "b_matrix": "transform",
    "c_matrix": "transform",
    "f_of_subdivision": "transform",
    "hc_of_subdivision": "transform",
    "hc_poly_of_iterate": "transform",
    "hsc_of_subdivision": "transform",
    "hsc_poly_of_iterate": "transform",
    "limit_distance_hc": "transform",
    "limit_distance_hsc": "transform",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
