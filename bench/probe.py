"""Fixed reference work that measures the host's speed, not curvcheck's.

``bench/run.py`` keeps this script running in a process of its own, which
never imports curvcheck, and times its work between timed ``curvcheck
check`` invocations.  Each line on standard input runs :func:`work` once on
each thread of a pool of ``--jobs`` threads, as ``checks.run_suite`` runs
checks, and is answered with the time per run of :func:`work` in seconds.
The work is of the kind curvcheck does (recursive evaluation of a float
expression tree, arithmetic on small numpy and scipy arrays), all defined
here, so its time depends on the interpreter, the libraries and the host,
never on curvcheck's code.  ``run.py`` divides curvcheck's times by it (see
``REFERENCE_PROBE_S`` there).  The work never changes: changing it changes
the scale of every end-to-end time.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg

#: Repetitions of each part: together about 0.3 s on the machine recorded in
#: ``bench/baseline.json``.
TREE_POINTS = 4000
MATRIX_STEPS = 15000

_OPS = ("+", "-", "*")


def build(rng: random.Random, depth: int):
    """A random expression tree: nested tuples ``(op, left, right)`` with
    variable indices and float constants at the leaves."""
    if depth == 0 or rng.random() < 0.15:
        return rng.randrange(3) if rng.random() < 0.6 else rng.uniform(-1.0, 1.0)
    return (rng.choice(_OPS), build(rng, depth - 1), build(rng, depth - 1))


def evaluate(node, point: tuple[float, ...]) -> float:
    if isinstance(node, int):
        return point[node]
    if isinstance(node, float):
        return node
    op, left, right = node
    a, b = evaluate(left, point), evaluate(right, point)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


def work() -> float:
    rng = random.Random(0)
    tree = build(rng, 9)
    total = 0.0
    for i in range(TREE_POINTS):
        total += evaluate(tree, (i * 1e-3, 0.5 - i * 1e-3, 0.25))
    m = np.array([[0.0, -0.3, 0.2], [0.3, 0.0, -0.1], [-0.2, 0.1, 0.0]])
    acc = np.eye(3)
    for _ in range(MATRIX_STEPS):
        acc = acc @ m + np.eye(3)
        acc /= np.abs(acc).max()
    return total + float(scipy.linalg.expm(m)[0, 0]) + float(acc[0, 0])


def timed(jobs: int) -> float:
    """Seconds per run of :func:`work`, run ``jobs`` times on ``jobs`` threads."""
    start = time.perf_counter()
    if jobs == 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(lambda _: work(), range(jobs)))
    return (time.perf_counter() - start) / jobs


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="time fixed reference work on demand")
    parser.add_argument("--jobs", type=int, required=True)
    jobs = parser.parse_args().jobs
    for _ in sys.stdin:
        print(timed(jobs), flush=True)
