"""JSON persistence for models and cumulant specs.

Complex scalars serialize as [re, im] pairs, matrices as row-major nested
lists of pairs.  Dumps are sorted and indentation-stable so identical inputs
produce byte-identical files; floats round-trip exactly through repr.

Reading and parsing a file (read_json) needs json alone, so a missing or
malformed file is refused before numpy loads.  Each converter imports numpy
and the layer it builds when it runs: json_to_rep the models (qgroups),
json_to_spec the specs (distributions).  A command reading a model loads no
distributions, and one reading a spec no qgroups.
"""

from __future__ import annotations

import cmath
import json
from typing import TYPE_CHECKING

from .errors import SchemaError, SizeLimitError

if TYPE_CHECKING:
    import numpy as np

    from .distributions import CumulantSpecSingle
    from .qgroups import MatrixRep


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(v) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        raise SchemaError(f"expected a [re, im] pair, got {v!r}")
    z = complex(float(v[0]), float(v[1]))
    if not cmath.isfinite(z):
        raise SchemaError("non-finite number in input")
    return z


def matrix_to_rows(m: np.ndarray) -> list:
    return [[complex_to_pair(z) for z in row] for row in m]


def rows_to_matrix(rows, shape: tuple) -> np.ndarray:
    import numpy as np

    if not isinstance(rows, list) or len(rows) != shape[0]:
        raise SchemaError(f"expected {shape[0]} matrix rows")
    out = np.zeros(shape, dtype=complex)
    for a, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise SchemaError(f"expected {shape[1]} entries per matrix row")
        for b, v in enumerate(row):
            out[a, b] = pair_to_complex(v)
    return out


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(obj: dict, key: str, types) -> object:
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    val = obj[key]
    if not isinstance(val, types) or (isinstance(val, bool) and types is not bool):
        raise SchemaError(f"bad type for key {key!r}")
    return val


def rep_to_json(rep: MatrixRep) -> dict:
    return {
        "n": rep.n,
        "d": rep.d,
        "tol": rep.tol,
        "entries": [
            [matrix_to_rows(rep.entries[i, j]) for j in range(rep.n)]
            for i in range(rep.n)
        ],
    }


def json_to_rep(obj, require_biunitary: bool = True) -> MatrixRep:
    """A parsed model file as a MatrixRep, checked biunitary unless asked not to."""
    import numpy as np

    from .qgroups import DEFAULT_TOL, MAX_FLAT_DIM, MatrixRep, check_biunitary

    if not isinstance(obj, dict):
        raise SchemaError("representation file must hold a JSON object")
    n = _require(obj, "n", int)
    d = _require(obj, "d", int)
    tol = obj.get("tol", DEFAULT_TOL)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool):
        raise SchemaError("bad type for key 'tol'")
    if n < 1 or d < 1:
        raise SchemaError("n and d must be positive")
    # before the (n, n, d, d) array is allocated
    if n * d > MAX_FLAT_DIM:
        raise SizeLimitError(f"flattened dimension {n * d} exceeds {MAX_FLAT_DIM}")
    rows = _require(obj, "entries", list)
    if len(rows) != n:
        raise SchemaError(f"expected {n} entry rows")
    entries = np.zeros((n, n, d, d), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"expected {n} entries in row {i}")
        for j, block in enumerate(row):
            entries[i, j] = rows_to_matrix(block, (d, d))
    try:
        rep = MatrixRep(entries, tol=tol)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if require_biunitary:
        chk = check_biunitary(rep)
        if not chk.holds:
            raise SchemaError(
                f"not biunitary (residual {chk.residual:.6g} > tol {rep.tol:g})"
            )
    return rep


def spec_to_json(spec: CumulantSpecSingle) -> dict:
    return {
        "order": spec.order,
        "dim": spec.dim,
        "selfadjoint": spec.selfadjoint,
        "shift": complex_to_pair(spec.shift),
        "entries": table_records(spec.entries),
    }


def json_to_spec(obj) -> CumulantSpecSingle:
    """A parsed spec file as a CumulantSpecSingle."""
    from .distributions import CumulantSpecSingle, _require_dim
    from .partitions import StarPattern

    if not isinstance(obj, dict):
        raise SchemaError("spec file must hold a JSON object")
    order = _require(obj, "order", int)
    dim = obj.get("dim", 1)
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise SchemaError("bad type for key 'dim'")
    _require_dim(dim)  # before any entry is read at that size
    shift = pair_to_complex(obj.get("shift", [0.0, 0.0]))
    records = _require(obj, "entries", list)
    entries = {}
    for rec in records:
        if not isinstance(rec, dict):
            raise SchemaError("each entry must be an object")
        pattern = _require(rec, "pattern", str)
        try:
            letters = StarPattern.coerce(pattern).letters
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        if letters in entries:
            raise SchemaError(f"duplicate pattern {letters!r}")
        if "value" not in rec:
            raise SchemaError("missing key 'value'")
        if dim == 1:
            entries[letters] = pair_to_complex(rec["value"])
        else:
            entries[letters] = rows_to_matrix(rec["value"], (dim, dim))
    try:
        return CumulantSpecSingle(
            order=order,
            entries=entries,
            shift=shift,
            selfadjoint=obj.get("selfadjoint", False),  # its type is the constructor's check
            dim=dim,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def table_records(data: dict) -> list:
    """Entries as pattern-sorted {"pattern", "value"} records: a number as a
    [re, im] pair, a matrix block as rows of pairs."""
    import numpy as np

    from .cumulants import pattern_sort_key

    return [{"pattern": letters, "value": (matrix_to_rows if np.ndim(data[letters]) else complex_to_pair)(data[letters])}
            for letters in sorted(data, key=pattern_sort_key)]


def save_rep(rep: MatrixRep, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(rep_to_json(rep)))


def read_json(path):
    """The file's parsed JSON; an unreadable or malformed file raises before numpy loads."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def load_rep(path, require_biunitary: bool = True) -> MatrixRep:
    return json_to_rep(read_json(path), require_biunitary=require_biunitary)


def save_spec(spec: CumulantSpecSingle, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(spec_to_json(spec)))


def load_spec(path) -> CumulantSpecSingle:
    return json_to_spec(read_json(path))
