"""Suite config loading: JSON ingestion, validation, and name resolution.

The config is a single JSON document (schema version 1) declaring named
patches, connections, linear connections, sections, morphisms, algebras,
and gauge potentials, plus a list of checks referencing them.  Validation
is strict: unknown keys, unresolved names, bad shapes, and expression
syntax errors all raise :class:`ConfigSchemaError` whose message starts
with the JSON path of the offending field.  docs/config-schema.md
documents the format.

Every declaration block goes through one walker (:func:`_entries`), every
array of expressions through one grid parser (:func:`_grid`), and every
check through one table of kinds (:data:`_KINDS`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

# the builtin sha256, which spares importing hashlib and with it OpenSSL
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without the builtin hashes
        from hashlib import sha256

from .bundle import BundlePatch, ChristoffelField, FiberBundleMorphism, Section
from .errors import (
    ClosureViolation,
    ConfigSchemaError,
    ExprSyntaxError,
    IndexOutOfRange,
    IoError,
    UnknownIdentifier,
)
from .exprdsl import parse
from .lie import MatrixLieAlgebra, builtin_algebra
from .linear import DEFAULT_LAMBDAS, LinearChristoffel
from .principal import GaugePotential
from .rng import SEED_LIMIT

__all__ = ["CheckSpec", "SuiteConfig", "load_config", "CHECK_KINDS"]

# kind -> (default samples, default tolerance, required keys,
#          {optional key: its default})
_KINDS = {
    "curvature-coefficients": (10, 1e-9, ("connection",), {}),
    "nijenhuis-vs-coefficients": (10, 1e-9, ("connection",), {}),
    # no section: a fresh section is sampled for every sample
    "commutator-identity": (10, 1e-9, ("connection",), {"section": None}),
    "theta-equivariance": (50, 1e-9, (), {"base_dim": 2, "fiber_dim": 2}),
    "parallel-morphism": (
        10, 1e-9, ("morphism", "connection", "connection_hat"), {"expect": "parallel"}
    ),
    "connection-axiom": (100, 1e-8, ("potential",), {}),
    "cartan-cross-check": (
        3, 1e-6, ("potential",), {"group_samples": 3, "section_samples": 2}
    ),
    "bch-theta": (5, 1e-4, ("algebra",), {}),
    "linearity": (
        64, 1e-9, ("connection",), {"expect": "linear", "lambdas": DEFAULT_LAMBDAS}
    ),
    "linear-consistency": (10, 1e-9, ("linear_connection",), {}),
}

CHECK_KINDS = tuple(_KINDS)

_CHECK_COMMON_KEYS = ("name", "kind", "samples", "tolerance", "seed")

# check key naming a declaration -> (declaration table, label in errors)
_REFERENCES = {
    "connection": ("connections", "connection"),
    "connection_hat": ("connections", "connection"),
    "section": ("sections", "section"),
    "morphism": ("morphisms", "morphism"),
    "potential": ("potentials", "potential"),
    "algebra": ("algebras", "algebra"),
    "linear_connection": ("linear_connections", "linear connection"),
}

# the largest value of ``samples`` and of each check key holding a positive
# integer: no grid bounds these sizes, so a run of a size past all use (a
# bound is at least 100 times any fixture's) is refused at load
_MAX_SAMPLES = 1_000_000
_INT_PARAMS = {"fiber_dim": 1000, "base_dim": 1000, "group_samples": 1000, "section_samples": 1000}

# kinds that compare curvature over pairs mu < nu of base directions -> the
# check key whose declaration gives the base dimension; at base_dim 1 there
# is no pair, and every residual would be 0 whatever the routes compute
_PAIRWISE = {
    "curvature-coefficients": "connection",
    "nijenhuis-vs-coefficients": "connection",
    "commutator-identity": "connection",
    "cartan-cross-check": "potential",
    "linear-consistency": "linear_connection",
}

# allowed values of ``expect`` per kind
_EXPECT = {
    "parallel-morphism": ("parallel", "not-parallel"),
    "linearity": ("linear", "nonlinear"),
}

class CheckSpec(NamedTuple):
    """One validated check: ``params`` holds the check's kind-specific keys,
    with declaration names resolved to the declared objects and every
    optional key the config leaves out set to its default."""

    name: str
    kind: str
    samples: int
    tolerance: float
    seed: int | None
    params: dict


@dataclass(frozen=True)
class SuiteConfig:
    version: int
    seed: int
    digest: str
    patches: dict
    connections: dict
    linear_connections: dict
    sections: dict
    morphisms: dict
    algebras: dict
    potentials: dict
    checks: tuple


def _fail(path: str, message: str):
    raise ConfigSchemaError(f"{path}: {message}")


_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
}


def _expect(value, kind: str, path: str):
    """``value`` if it has the JSON type ``kind``; JSON ``true`` and
    ``false`` are not numbers."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        article = "an" if kind[0] in "aeiou" else "a"
        _fail(path, f"expected {article} {kind}, got {type(value).__name__}")
    return value


def _expect_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    _expect(value, "integer", path)
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be at most {maximum}, got {value}")
    return value


def _expect_seed(value, path: str) -> int:
    seed = _expect_int(value, path, 0)
    if seed >= SEED_LIMIT:
        _fail(path, f"must be below 2^64, got {seed}")
    return seed


def _expect_number(value, path: str) -> float:
    try:
        number = float(_expect(value, "number", path))
    except OverflowError:  # an integer past the largest double
        number = math.inf
    if not math.isfinite(number):
        _fail(path, "must be finite")
    return number


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        _fail(path, f"unknown key {unknown[0]!r}")


def _require(obj: dict, keys, path: str, needs: str = "needs") -> None:
    missing = [key for key in keys if key not in obj]
    if missing:
        _fail(path, f"{needs} {' and '.join(missing)}")


def _entries(block, path: str, required: tuple, optional: tuple = ()):
    """Yield ``(name, json path, body)`` for each declaration of a block,
    once its body is known to be an object with every key of ``required``
    and no key outside ``required`` and ``optional``."""
    for name, body in _expect(block, "object", path).items():
        here = f"{path}.{name}"
        _expect(body, "object", here)
        _reject_unknown(body, required + optional, here)
        _require(body, required, here)
        yield name, here, body


def _grid(value, shape: tuple, dims: tuple[int, int], path: str, rows: str = "entries"):
    """Nested tuples of the expressions in ``value``, an array of
    ``shape[0]`` arrays of ``shape[1]`` ... expression strings, parsed
    against ``dims``.  ``rows`` names the outermost entries in a length
    error."""
    items = _expect(value, "array", path)
    if len(items) != shape[0]:
        _fail(path, f"needs {shape[0]} {rows}, got {len(items)}")
    if len(shape) > 1:
        return tuple(
            _grid(item, shape[1:], dims, f"{path}[{i}]")
            for i, item in enumerate(items)
        )
    parsed = []
    for i, source in enumerate(items):
        here = f"{path}[{i}]"
        try:
            parsed.append(parse(_expect(source, "string", here), dims))
        except (ExprSyntaxError, UnknownIdentifier, IndexOutOfRange) as exc:
            raise ConfigSchemaError(f"{here}: {exc}") from exc
    return tuple(parsed)


def _resolve(table: dict, name, table_label: str, path: str):
    key = _expect(name, "string", path)
    if key not in table:
        _fail(path, f"undeclared {table_label} {key!r}")
    return table[key]


def _build(path: str, make, *args):
    """``make(*args)``, with its ``ValueError`` reported at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        _fail(path, str(exc))


def _matrix(entry, path: str) -> list:
    """One basis matrix, given as nested rows or as a row-major list."""
    entry = _expect(entry, "array", path)
    if entry and isinstance(entry[0], list):
        rows = [
            [
                _expect_number(v, f"{path}[{r}][{c}]")
                for c, v in enumerate(_expect(row, "array", f"{path}[{r}]"))
            ]
            for r, row in enumerate(entry)
        ]
        if any(len(row) != len(rows) for row in rows):
            _fail(path, "matrix must be square")
        return rows
    flat = [_expect_number(v, f"{path}[{j}]") for j, v in enumerate(entry)]
    d = math.isqrt(len(flat))
    if d * d != len(flat):
        _fail(path, f"row-major matrix needs a square length, got {len(flat)}")
    return [flat[r * d : (r + 1) * d] for r in range(d)]


def _patch_at(tables: dict, body: dict, here: str, key: str = "patch"):
    return _resolve(tables["patches"], body[key], "patch", f"{here}.{key}")


def _patch(name: str, here: str, body: dict, tables: dict) -> BundlePatch:
    base_dim = _expect_int(body["base_dim"], f"{here}.base_dim", 1)
    fiber_dim = _expect_int(body["fiber_dim"], f"{here}.fiber_dim", 1)
    return BundlePatch(base_dim, fiber_dim)


def _algebra(name: str, here: str, body: dict, tables: dict) -> MatrixLieAlgebra:
    if ("builtin" in body) == ("basis" in body):
        _fail(here, "needs exactly one of builtin or basis")
    if "builtin" in body:
        label = _expect(body["builtin"], "string", f"{here}.builtin")
        return _build(f"{here}.builtin", builtin_algebra, label)
    basis = _expect(body["basis"], "array", f"{here}.basis")
    if not basis:
        _fail(f"{here}.basis", "needs at least one matrix")
    matrices = [_matrix(entry, f"{here}.basis[{i}]") for i, entry in enumerate(basis)]
    try:
        return MatrixLieAlgebra.from_basis(matrices)
    except (ValueError, ClosureViolation) as exc:
        raise ConfigSchemaError(f"{here}.basis: {exc}") from exc


def _connection(name: str, here: str, body: dict, tables: dict) -> ChristoffelField:
    patch = _patch_at(tables, body, here)
    m, n = patch.dims
    rows = "rows (one per fiber index)"
    gamma = _grid(body["gamma"], (n, m), patch.dims, f"{here}.gamma", rows)
    return _build(here, ChristoffelField, patch, gamma)


def _linear_connection(name: str, here: str, body: dict, tables: dict):
    patch = _patch_at(tables, body, here)
    m, n = patch.dims
    gamma3 = _grid(body["gamma3"], (n, m, n), patch.dims, f"{here}.gamma3", "rows")
    return _build(here, LinearChristoffel, patch, gamma3)


def _section(name: str, here: str, body: dict, tables: dict) -> Section:
    patch = _patch_at(tables, body, here)
    comps = _grid(body["comps"], (patch.fiber_dim,), patch.dims, f"{here}.comps")
    return _build(here, Section, patch, comps)


def _morphism(name: str, here: str, body: dict, tables: dict) -> FiberBundleMorphism:
    source = _patch_at(tables, body, here, "source")
    target = _patch_at(tables, body, here, "target")
    comps = _grid(body["comps"], (target.fiber_dim,), source.dims, f"{here}.comps")
    return _build(here, FiberBundleMorphism, source, target, comps)


def _potential(name: str, here: str, body: dict, tables: dict) -> GaugePotential:
    algebras = tables["algebras"]
    algebra = _resolve(algebras, body["algebra"], "algebra", f"{here}.algebra")
    m = _expect_int(body["base_dim"], f"{here}.base_dim", 1)
    rows = "rows (one per base direction)"
    a = _grid(body["a"], (m, algebra.k), (m, 1), f"{here}.a", rows)
    return _build(here, GaugePotential, algebra, m, a)


# declaration block -> (required keys, optional keys, loader of one entry),
# in loading order: a block may refer to the blocks above it
_DECLARATIONS = {
    "patches": (("base_dim", "fiber_dim"), (), _patch),
    "algebras": ((), ("builtin", "basis"), _algebra),
    "connections": (("patch", "gamma"), (), _connection),
    "linear_connections": (("patch", "gamma3"), (), _linear_connection),
    "sections": (("patch", "comps"), (), _section),
    "morphisms": (("source", "target", "comps"), (), _morphism),
    "potentials": (("algebra", "base_dim", "a"), (), _potential),
}

_TOP_LEVEL_KEYS = ("version", "seed", *_DECLARATIONS, "checks")


def _load_check(body, index: int, tables: dict) -> CheckSpec:
    here = f"checks[{index}]"
    _expect(body, "object", here)
    _require(body, ("name", "kind"), here)
    name = _expect(body["name"], "string", f"{here}.name")
    if not name:
        _fail(f"{here}.name", "must not be empty")
    kind = _expect(body["kind"], "string", f"{here}.kind")
    if kind not in _KINDS:
        known = ", ".join(CHECK_KINDS)
        _fail(f"{here}.kind", f"unknown check kind {kind!r} (known: {known})")
    default_samples, default_tol, required, optional = _KINDS[kind]
    _reject_unknown(body, _CHECK_COMMON_KEYS + required + tuple(optional), here)
    _require(body, required, here, f"kind {kind!r} needs")
    samples = _expect_int(body.get("samples", default_samples), f"{here}.samples", 1, _MAX_SAMPLES)
    tolerance = _expect_number(body.get("tolerance", default_tol), f"{here}.tolerance")
    if tolerance <= 0:
        _fail(f"{here}.tolerance", f"must be positive, got {tolerance}")
    seed = None
    if "seed" in body:
        seed = _expect_seed(body["seed"], f"{here}.seed")

    params: dict = {}
    for key, (table, label) in _REFERENCES.items():
        if key in body:
            params[key] = _resolve(tables[table], body[key], label, f"{here}.{key}")
    if kind in _PAIRWISE:
        key = _PAIRWISE[kind]
        base_dim = params[key].base_dim if key == "potential" else params[key].patch.base_dim
        if base_dim < 2:
            pairs = f"kind {kind!r} compares curvature over pairs of base directions"
            _fail(f"{here}.{key}", f"{pairs} and needs base_dim >= 2, got {base_dim}")
    if "section" in params and params["section"].patch != params["connection"].patch:
        _fail(f"{here}.section", "section and connection patches differ")
    if kind == "parallel-morphism":
        phi = params["morphism"]
        if phi.source != params["connection"].patch:
            _fail(f"{here}.morphism", "morphism source and connection patches differ")
        if phi.target != params["connection_hat"].patch:
            _fail(
                f"{here}.morphism", "morphism target and connection_hat patches differ"
            )
    if "expect" in body:
        expect = _expect(body["expect"], "string", f"{here}.expect")
        if expect not in _EXPECT[kind]:
            _fail(f"{here}.expect", f"must be one of {_EXPECT[kind]}, got {expect!r}")
        params["expect"] = expect
    if "lambdas" in body:
        values = _expect(body["lambdas"], "array", f"{here}.lambdas")
        if not values:
            _fail(f"{here}.lambdas", "must not be empty")
        params["lambdas"] = tuple(
            _expect_number(v, f"{here}.lambdas[{i}]") for i, v in enumerate(values)
        )
    for key, maximum in _INT_PARAMS.items():
        if key in body:
            params[key] = _expect_int(body[key], f"{here}.{key}", 1, maximum)
    for key, default in optional.items():
        params.setdefault(key, default)
    return CheckSpec(name, kind, samples, tolerance, seed, params)


def load_config(path: str) -> SuiteConfig:
    """Read, parse, and validate a suite config from a JSON file."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigSchemaError(f"{path}: config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigSchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigSchemaError(f"{path}: JSON nests too deeply to read") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ConfigSchemaError(f"{path}: cannot read a JSON number: {exc}") from None
    _expect(document, "object", "config")
    _reject_unknown(document, _TOP_LEVEL_KEYS, "config")
    if "version" not in document:
        _fail("config", "needs a version field (current schema version is 1)")
    version = _expect_int(document["version"], "version")
    if version != 1:
        _fail("version", f"unsupported schema version {version} (supported: 1)")
    seed = _expect_seed(document.get("seed", 0), "seed")
    tables = {}
    for block, (required, optional, load) in _DECLARATIONS.items():
        entries = _entries(document.get(block, {}), block, required, optional)
        tables[block] = {
            name: load(name, here, body, tables) for name, here, body in entries
        }

    checks = []
    seen = set()
    bodies = _expect(document.get("checks", []), "array", "checks")
    for index, body in enumerate(bodies):
        spec = _load_check(body, index, tables)
        if spec.name in seen:
            _fail(f"checks[{index}].name", f"duplicate check name {spec.name!r}")
        seen.add(spec.name)
        checks.append(spec)

    return SuiteConfig(
        version=version,
        seed=seed,
        digest=sha256(raw).hexdigest(),
        checks=tuple(checks),
        **tables,
    )
