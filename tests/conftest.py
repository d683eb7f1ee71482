import io

import numpy as np
import pytest

from magsphere.core import cot_potential, identical_params
from magsphere.equilibria import type2


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def params():
    return identical_params(2.5)


@pytest.fixture
def V(params):
    return cot_potential(params)


def random_states(rng, n, q_range=(0.3, 2.8), scale=1.0):
    """n random reduced phase-space points as (n, 5) array."""
    out = np.empty((n, 5))
    out[:, [0, 1, 2, 4]] = rng.uniform(-scale, scale, (n, 4))
    out[:, 3] = rng.uniform(*q_range, n)
    return out


def orbit_states(rng, n):
    """n small perturbations of isosceles equilibria at B = 2.5, q in
    [1.6, 2.0]: the starting states of criterion 07 and the `orbits`
    benchmark, as (5,) arrays."""
    out = []
    for _ in range(n):
        x = type2(rng.uniform(1.6, 2.0), 2.5)[0].state.as_array()
        x += rng.uniform(-0.05, 0.05, 5)
        out.append(x)
    return out


def per_value_csv(columns, rows, metadata=None):
    """The CSV rule value by value, the reference for `core.csv_text`: the
    optional metadata line, the header, then each value as itself if it is
    a str and as f"{v:.15g}" otherwise."""
    buf = io.StringIO()
    if metadata is not None:
        buf.write("# " + " ".join(f"{k}={v}" for k, v in metadata.items()) + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(v if isinstance(v, str) else f"{v:.15g}" for v in row) + "\n")
    return buf.getvalue()
