"""Tests for suite-config loading: schema validation, name resolution,
expression binding, per-kind defaults, and error reporting with JSON paths."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from curvcheck import config as config_module
from curvcheck.config import CHECK_KINDS, load_config
from curvcheck.errors import ConfigSchemaError, IoError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _write(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _base(**overrides):
    doc = {
        "version": 1,
        "patches": {"plane": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"flat": {"patch": "plane", "gamma": [["0", "0"]]}},
        "checks": [
            {"name": "c", "kind": "curvature-coefficients", "connection": "flat"}
        ],
    }
    doc.update(overrides)
    return doc


# --- happy paths ------------------------------------------------------------


def test_minimal_fixture_loads():
    config = load_config(str(FIXTURES / "minimal.json"))
    assert config.version == 1
    assert config.seed == 0
    assert set(config.patches) == {"plane"}
    assert config.patches["plane"].dims == (2, 1)
    assert set(config.connections) == {"flat"}
    assert len(config.checks) == 1
    check = config.checks[0]
    assert check.name == "flat-curvature"
    assert check.kind == "curvature-coefficients"
    assert check.samples == 10
    assert check.tolerance == 1e-9
    assert check.seed is None
    assert check.params["connection"] is config.connections["flat"]


def test_digest_is_sha256_of_raw_bytes():
    path = FIXTURES / "minimal.json"
    config = load_config(str(path))
    assert config.digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_verify_fixture_loads():
    config = load_config(str(FIXTURES / "verify.json"))
    assert len(config.checks) == 13
    assert set(config.algebras) == {"rot2", "rot3"}
    assert config.algebras["rot3"].k == 3
    assert set(config.potentials) == {"abelian2", "rot3const"}
    assert config.potentials["abelian2"].base_dim == 2
    assert set(config.linear_connections) == {"lin1"}
    names = [c.name for c in config.checks]
    assert len(names) == len(set(names))


def test_per_kind_defaults(tmp_path):
    doc = _base(
        algebras={"rot3": {"builtin": "so3"}},
        potentials={
            "p": {"algebra": "rot3", "base_dim": 2, "a": [["x1", "0", "0"], ["0", "0", "0"]]}
        },
        checks=[
            {"name": "axiom", "kind": "connection-axiom", "potential": "p"},
            {"name": "bch", "kind": "bch-theta", "algebra": "rot3"},
            {"name": "cartan", "kind": "cartan-cross-check", "potential": "p"},
            {"name": "theta", "kind": "theta-equivariance"},
        ],
    )
    config = load_config(_write(tmp_path, doc))
    by_name = {c.name: c for c in config.checks}
    assert (by_name["axiom"].samples, by_name["axiom"].tolerance) == (100, 1e-8)
    assert (by_name["bch"].samples, by_name["bch"].tolerance) == (5, 1e-4)
    assert (by_name["cartan"].samples, by_name["cartan"].tolerance) == (3, 1e-6)
    assert (by_name["theta"].samples, by_name["theta"].tolerance) == (50, 1e-9)


def test_check_level_overrides(tmp_path):
    doc = _base()
    doc["checks"][0].update({"samples": 3, "tolerance": 0.5, "seed": 7})
    config = load_config(_write(tmp_path, doc))
    check = config.checks[0]
    assert check.samples == 3
    assert check.tolerance == 0.5
    assert check.seed == 7


def test_custom_algebra_row_major_and_nested(tmp_path):
    doc = _base(
        algebras={
            "flat2": {"basis": [[0, -1, 1, 0]]},
            "nested": {"basis": [[[0, -1], [1, 0]]]},
        }
    )
    config = load_config(_write(tmp_path, doc))
    assert config.algebras["flat2"].k == 1
    assert config.algebras["flat2"].d == 2
    assert config.algebras["nested"].k == 1


def test_linearity_lambdas_param(tmp_path):
    doc = _base()
    doc["checks"] = [
        {
            "name": "lin",
            "kind": "linearity",
            "connection": "flat",
            "lambdas": [0, -2, 3.5],
            "expect": "linear",
        }
    ]
    config = load_config(_write(tmp_path, doc))
    assert config.checks[0].params["lambdas"] == (0.0, -2.0, 3.5)
    assert config.checks[0].params["expect"] == "linear"


# --- structural errors ------------------------------------------------------


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_config(str(tmp_path / "absent.json"))


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"version\": 1,,\n}", encoding="utf-8")
    with pytest.raises(ConfigSchemaError) as err:
        load_config(str(path))
    assert "line" in str(err.value)


def test_version_required_and_pinned(tmp_path):
    doc = _base()
    del doc["version"]
    with pytest.raises(ConfigSchemaError, match="version"):
        load_config(_write(tmp_path, doc))
    with pytest.raises(ConfigSchemaError, match="unsupported schema version"):
        load_config(_write(tmp_path, _base(version=2)))
    with pytest.raises(ConfigSchemaError, match="expected an integer"):
        load_config(_write(tmp_path, _base(version=True)))


def test_unknown_top_level_key(tmp_path):
    with pytest.raises(ConfigSchemaError, match="unknown key"):
        load_config(_write(tmp_path, _base(bananas={})))


def test_unknown_check_key(tmp_path):
    doc = _base()
    doc["checks"][0]["surprise"] = 1
    with pytest.raises(ConfigSchemaError, match="unknown key"):
        load_config(_write(tmp_path, doc))


def test_undeclared_connection_named_in_error(tmp_path):
    doc = _base()
    doc["checks"][0]["connection"] = "g7"
    with pytest.raises(ConfigSchemaError, match="g7"):
        load_config(_write(tmp_path, doc))


def test_expression_error_carries_path_and_offset(tmp_path):
    doc = _base()
    doc["connections"]["flat"]["gamma"] = [["x1 +", "0"]]
    with pytest.raises(ConfigSchemaError) as err:
        load_config(_write(tmp_path, doc))
    message = str(err.value)
    assert "connections.flat.gamma[0][0]" in message
    assert "offset 4" in message


def test_unknown_kind_lists_known_kinds(tmp_path):
    doc = _base()
    doc["checks"][0]["kind"] = "curvature"
    with pytest.raises(ConfigSchemaError) as err:
        load_config(_write(tmp_path, doc))
    for kind in CHECK_KINDS:
        assert kind in str(err.value)


def test_duplicate_check_names(tmp_path):
    doc = _base()
    doc["checks"].append(dict(doc["checks"][0]))
    with pytest.raises(ConfigSchemaError, match="duplicate check name"):
        load_config(_write(tmp_path, doc))


def test_tolerance_must_be_positive(tmp_path):
    doc = _base()
    doc["checks"][0]["tolerance"] = 0
    with pytest.raises(ConfigSchemaError, match="positive"):
        load_config(_write(tmp_path, doc))
    doc["checks"][0]["tolerance"] = -1e-9
    with pytest.raises(ConfigSchemaError, match="positive"):
        load_config(_write(tmp_path, doc))


def test_samples_and_seed_bounds(tmp_path):
    doc = _base()
    doc["checks"][0]["samples"] = 0
    with pytest.raises(ConfigSchemaError, match="at least 1"):
        load_config(_write(tmp_path, doc))
    doc = _base()
    doc["checks"][0]["seed"] = -1
    with pytest.raises(ConfigSchemaError, match="at least 0"):
        load_config(_write(tmp_path, doc))


def test_gamma_shape_validation(tmp_path):
    doc = _base()
    doc["connections"]["flat"]["gamma"] = [["0"]]
    with pytest.raises(ConfigSchemaError, match="needs 2 entries"):
        load_config(_write(tmp_path, doc))
    doc = _base()
    doc["connections"]["flat"]["gamma"] = [["0", "0"], ["0", "0"]]
    with pytest.raises(ConfigSchemaError, match="needs 1 row"):
        load_config(_write(tmp_path, doc))


def test_required_kind_keys(tmp_path):
    doc = _base()
    doc["checks"][0] = {"name": "c", "kind": "curvature-coefficients"}
    with pytest.raises(ConfigSchemaError, match="needs connection"):
        load_config(_write(tmp_path, doc))


def test_expect_enum_per_kind(tmp_path):
    doc = _base()
    doc["checks"] = [
        {"name": "lin", "kind": "linearity", "connection": "flat", "expect": "banana"}
    ]
    with pytest.raises(ConfigSchemaError, match="banana"):
        load_config(_write(tmp_path, doc))
    doc["checks"] = [
        {
            "name": "par",
            "kind": "parallel-morphism",
            "morphism": "m",
            "connection": "flat",
            "connection_hat": "flat",
            "expect": "linear",
        }
    ]
    doc["morphisms"] = {
        "m": {"source": "plane", "target": "plane", "comps": ["f1"]}
    }
    with pytest.raises(ConfigSchemaError, match="expect"):
        load_config(_write(tmp_path, doc))


def test_section_patch_must_match_connection(tmp_path):
    doc = _base(
        patches={
            "plane": {"base_dim": 2, "fiber_dim": 1},
            "other": {"base_dim": 1, "fiber_dim": 1},
        },
        sections={"s": {"patch": "other", "comps": ["x1"]}},
    )
    doc["checks"] = [
        {
            "name": "comm",
            "kind": "commutator-identity",
            "connection": "flat",
            "section": "s",
        }
    ]
    with pytest.raises(ConfigSchemaError, match="patches differ"):
        load_config(_write(tmp_path, doc))


def test_morphism_patches_must_match_connections(tmp_path):
    doc = _base(
        patches={
            "plane": {"base_dim": 2, "fiber_dim": 1},
            "wide": {"base_dim": 2, "fiber_dim": 2},
        },
        connections={
            "flat": {"patch": "plane", "gamma": [["0", "0"]]},
            "flat2": {"patch": "wide", "gamma": [["0", "0"], ["0", "0"]]},
        },
        morphisms={"m": {"source": "plane", "target": "plane", "comps": ["f1"]}},
    )
    doc["checks"] = [
        {
            "name": "par",
            "kind": "parallel-morphism",
            "morphism": "m",
            "connection": "flat",
            "connection_hat": "flat2",
        }
    ]
    with pytest.raises(ConfigSchemaError, match="target"):
        load_config(_write(tmp_path, doc))


def test_algebra_validation(tmp_path):
    doc = _base(algebras={"bad": {"basis": [[0, 1, 0]]}})
    with pytest.raises(ConfigSchemaError, match="square"):
        load_config(_write(tmp_path, doc))
    doc = _base(algebras={"bad": {"builtin": "e8"}})
    with pytest.raises(ConfigSchemaError, match="e8"):
        load_config(_write(tmp_path, doc))
    doc = _base(algebras={"bad": {}})
    with pytest.raises(ConfigSchemaError, match="builtin or basis"):
        load_config(_write(tmp_path, doc))
    # The raising-operator pair from the 2x2 traceless algebra does not
    # close: its bracket is diagonal, outside the span.
    doc = _base(
        algebras={"open": {"basis": [[0, 1, 0, 0], [0, 0, 1, 0]]}}
    )
    with pytest.raises(ConfigSchemaError, match="algebras.open.basis"):
        load_config(_write(tmp_path, doc))


def test_potential_fiber_reference_rejected(tmp_path):
    doc = _base(
        algebras={"rot2": {"builtin": "so2"}},
        potentials={"p": {"algebra": "rot2", "base_dim": 2, "a": [["f1"], ["0"]]}},
    )
    with pytest.raises(ConfigSchemaError, match=r"potentials\.p: .*base variables only"):
        load_config(_write(tmp_path, doc))


def test_empty_checks_allowed(tmp_path):
    config = load_config(_write(tmp_path, _base(checks=[])))
    assert config.checks == ()


# --- docs ----------------------------------------------------------------------

SCHEMA_DOC = Path(__file__).resolve().parent.parent / "docs" / "config-schema.md"


def _doc_names(cell: str) -> tuple:
    """The backquoted key names of a table cell, outside its parenthesized
    remarks."""
    return tuple(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell)))


def _doc_defaults(cell: str) -> dict:
    """Each key of a table cell with the JSON value of its ``(default
    `...`)`` remark, arrays as tuples; a key without one maps to the string
    "no default"."""
    defaults = dict.fromkeys(_doc_names(cell), "no default")
    for key, text in re.findall(r"`([^`]+)` \(default `([^`]+)`", cell):
        value = json.loads(text)
        defaults[key] = tuple(value) if isinstance(value, list) else value
    return defaults


def test_schema_doc_kind_table_matches_the_loader():
    table = {}
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        kind, samples, tolerance, required, optional = line.strip("|").split("|")
        (kind,) = _doc_names(kind)
        table[kind] = (
            int(samples),
            float(tolerance),
            _doc_names(required),
            _doc_defaults(optional),
        )
    assert list(table) == list(CHECK_KINDS)
    assert table == config_module._KINDS


# --- every key path of the verify fixture, mutated ---------------------------

_DELETE = object()
_REPLACEMENTS = (None, True, -1, 0.5, "x9", [], {})


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _fixture_mutations(doc):
    """``(label, mutated document)`` for each single mutation of each key
    path of ``doc``: delete it, give it another JSON type, empty it, add an
    unknown key to an object, and shrink or grow an array by one entry."""
    for path in _paths(doc):
        value = doc
        for key in path:
            value = value[key]
        edits = [("retype", r) for r in _REPLACEMENTS if type(r) is not type(value)]
        if isinstance(value, (str, list, dict)):
            edits.append(("empty", type(value)()))
        if isinstance(value, dict):
            edits.append(("extra key", {**value, "zz_extra": 1}))
        if isinstance(value, list) and value:
            edits += [("shrink", value[:-1]), ("grow", value + value[-1:])]
        if path:
            edits.append(("delete", _DELETE))
        for label, new in edits:
            yield f"{label} {list(path)}", _replaced(doc, path, new)


_JSON_PATH = re.compile(r"([^.\[\s]+)((?:\.[^.\[\s]+|\[\d+\])*)")
_SEGMENT = re.compile(r"\.([^.\[]+)|\[(\d+)\]")


def _resolves(doc, where: str) -> bool:
    """Whether the JSON path ``where`` names a value of ``doc``; ``config``
    is the document itself."""
    match = _JSON_PATH.fullmatch(where)
    if match is None:
        return False
    head, rest = match.groups()
    keys = [] if head == "config" else [head]
    keys += [key if key else int(index) for key, index in _SEGMENT.findall(rest)]
    node = doc
    for key in keys:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return False
    return True


def test_every_fixture_mutation_loads_or_names_its_json_path(tmp_path):
    doc = json.loads((FIXTURES / "verify.json").read_text(encoding="utf-8"))
    path = tmp_path / "mutated.json"
    count = 0
    for label, mutated in _fixture_mutations(doc):
        count += 1
        path.write_text(json.dumps(mutated), encoding="utf-8")
        try:
            load_config(str(path))
        except ConfigSchemaError as exc:
            where, sep, _ = str(exc).partition(": ")
            assert sep and _resolves(mutated, where), (label, str(exc))
    assert count > 1000
