import contextlib
import inspect
import tracemalloc

import numpy as np
import pytest

from obstacle_afem import LShape, Square, build_initial_mesh, refine

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and replayed after the test run (output capture would otherwise hide them).
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def recording(module, name):
    """Record ``(args, result)`` of each call of the module global
    ``module.name`` made while the block runs; arguments passed by
    keyword join ``args`` in signature order, up to the first one left
    out.

    The wrapper replaces the global where its callers look it up, so
    per-level data of a loop can be read without the loop keeping them.
    """
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        if kwargs:
            args = inspect.signature(original).bind(*args, **kwargs).args
        calls.append((args, result))
        return result

    setattr(module, name, recorded)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def traced_peak(fn, *args):
    """Return ``fn(*args)`` and the peak number of bytes that Python
    memory tracing saw allocated during the call, result included."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_refined_mesh(rng, domain, max_nodes=200):
    """Randomly refined mesh with at most ``max_nodes`` nodes."""
    mesh = build_initial_mesh(domain)
    while True:
        k = int(rng.integers(1, max(2, mesh.num_edges // 3)))
        marked = rng.choice(mesh.num_edges, size=min(k, mesh.num_edges),
                            replace=False)
        refined = refine(mesh, marked)
        if refined.num_nodes > max_nodes:
            return mesh
        mesh = refined


@pytest.fixture
def unit_square_mesh():
    return build_initial_mesh(Square(0.0, 0.0, 1.0, 1.0))


@pytest.fixture
def lshape_mesh():
    return build_initial_mesh(LShape())


@pytest.fixture
def zero_trace():
    return lambda x, y: np.zeros_like(np.asarray(x, float))
