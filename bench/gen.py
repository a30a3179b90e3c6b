"""Deterministic workload configs for the benchmark.

Every config is built from ``curvcheck.rng`` and ``curvcheck.sampling``
alone and rendered through ``curvcheck.exprdsl.unparse``, so a seed pins
the file byte for byte.  The config's suite seed is the benchmark seed.

The seed sets every real coefficient, while term counts, degrees and
variables come from a stream fixed once for all seeds.  Every seed thus
yields configs of the same shape and the same cost, and run-to-run
differences between seeds measure the machine rather than the draw.
"""

from __future__ import annotations

import json

from curvcheck.bundle import BundlePatch
from curvcheck.exprdsl import unparse
from curvcheck.rng import stream
from curvcheck.sampling import sample_christoffel, sample_polynomial

__all__ = ["scaling_config", "wide_config", "render", "SCALING_MULTIPLE"]

#: Sample counts of the scaling workloads, as a multiple of the kind defaults
#: (rounded, at least 1).
SCALING_MULTIPLE = 1.0
#: Connections of the wide workload, and the most terms of each symbol.
WIDE_CONNECTIONS = 4
WIDE_MAX_TERMS = 400

# The kind defaults of ``curvcheck.config``, copied so that a change of a
# default in the program does not change the benchmark's inputs.
_KIND_SAMPLES = {
    "curvature-coefficients": 10,
    "nijenhuis-vs-coefficients": 10,
    "commutator-identity": 10,
    "connection-axiom": 100,
    "cartan-cross-check": 3,
    "bch-theta": 5,
}

_CONNECTION_KINDS = (
    ("coeffs", "curvature-coefficients"),
    ("nijenhuis", "nijenhuis-vs-coefficients"),
    ("commutator", "commutator-identity"),
)


class _FixedShape:
    """The draws ``curvcheck.sampling`` makes, split over two SplitMix64
    streams: integer draws (term counts, degrees, variable choices) from a
    stream that ignores the seed, real draws (coefficients) from the seeded
    one."""

    def __init__(self, seed: int, name: str):
        self._values = stream(seed, name)
        self._shape = stream(0, name + "/shape")

    def symmetric(self, scale: float = 1.0) -> float:
        return self._values.symmetric(scale)

    def int_below(self, n: int) -> int:
        return self._shape.int_below(n)

    def choice(self, seq):
        return self._shape.choice(seq)


def _connection_checks(label: str, samples: int) -> list[dict]:
    return [
        {"name": f"{prefix}-{label}", "kind": kind, "connection": label, "samples": samples}
        for prefix, kind in _CONNECTION_KINDS
    ]


def scaling_config(seed: int) -> dict:
    """Connections at m = n = 2, 3, 4 and polynomial so3 / sl2 potentials,
    with ``SCALING_MULTIPLE`` times the kind default samples per check."""
    rng = _FixedShape(seed, "bench/scaling")

    def samples(kind: str) -> int:
        return max(1, round(_KIND_SAMPLES[kind] * SCALING_MULTIPLE))

    patches, connections, checks = {}, {}, []
    for dim in (2, 3, 4):
        patch, label = f"p{dim}{dim}", f"c{dim}"
        patches[patch] = {"base_dim": dim, "fiber_dim": dim}
        field = sample_christoffel(rng, BundlePatch(dim, dim))
        connections[label] = {
            "patch": patch,
            "gamma": [[unparse(e) for e in row] for row in field.gamma],
        }
        checks += _connection_checks(label, samples("commutator-identity"))
    algebras, potentials = {}, {}
    for group in ("so3", "sl2"):
        algebras[group] = {"builtin": group}
        label = f"poly-{group}"
        potentials[label] = {
            "algebra": group,
            "base_dim": 2,
            "a": [
                [unparse(sample_polynomial(rng, 2, 0, 4, 2, 0.5)) for _ in range(3)]
                for _ in range(2)
            ],
        }
        checks += [
            {"name": f"axiom-{group}", "kind": "connection-axiom",
             "potential": label, "samples": samples("connection-axiom")},
            {"name": f"cartan-{group}", "kind": "cartan-cross-check",
             "potential": label, "samples": samples("cartan-cross-check")},
            {"name": f"bch-{group}", "kind": "bch-theta",
             "algebra": group, "samples": samples("bch-theta")},
        ]
    return {
        "version": 1,
        "seed": seed,
        "patches": patches,
        "connections": connections,
        "algebras": algebras,
        "potentials": potentials,
        "checks": sorted(checks, key=lambda c: c["name"]),
    }


def wide_config(seed: int) -> dict:
    """``WIDE_CONNECTIONS`` m = n = 2 connections whose symbols are long
    sparse polynomials of degree at most 4 (up to ``WIDE_MAX_TERMS`` terms
    each), one sample per check."""
    rng = _FixedShape(seed, "bench/wide")
    table, checks = {}, []
    for i in range(WIDE_CONNECTIONS):
        label = f"w{i}"
        field = sample_christoffel(rng, BundlePatch(2, 2), WIDE_MAX_TERMS, 4)
        table[label] = {
            "patch": "p22",
            "gamma": [[unparse(e) for e in row] for row in field.gamma],
        }
        checks += _connection_checks(label, 1)
    return {
        "version": 1,
        "seed": seed,
        "patches": {"p22": {"base_dim": 2, "fiber_dim": 2}},
        "connections": table,
        "checks": sorted(checks, key=lambda c: c["name"]),
    }


def render(doc: dict) -> bytes:
    """The config file's bytes: stable key order, one trailing newline."""
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")
