import math

import numpy as np
from hypothesis import strategies as st

from xdeficit import StateParams


def triangle_samples(n: int, seed: int) -> np.ndarray:
    """Uniform (q1, q2) samples inside the triangle, reproducible by seed."""
    rng = np.random.default_rng(seed)
    q = rng.random((n, 2))
    flip = q.sum(axis=1) > 1.0
    q[flip] = 1.0 - q[flip]
    return q


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_minimize(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """(x, f(x)) at the golden-section minimum of a unimodal f on [lo, hi].

    A brute-force reference on S itself, free of the slope solver of
    ``xdeficit.shape``.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def triangle_states():
    """Hypothesis strategy drawing valid StateParams."""
    return (
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
        .filter(lambda t: t[0] + t[1] <= 1.0)
        .map(lambda t: StateParams(t[0], t[1]))
    )


# a weight anywhere in [0, 1], on an edge value, or within 1e-12 of one
_edge_weights = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1e-12),
    st.floats(min_value=1.0 - 1e-12, max_value=1.0),
)


@st.composite
def closed_triangle_states(draw):
    """States of the closed triangle, weighted toward its edges and corners.

    Covers the interior, the three edges (the hypotenuse too), the corners and
    points within 1e-12 of each of them.
    """
    q1 = draw(_edge_weights)
    q2 = draw(st.one_of(
        _edge_weights,
        st.floats(min_value=0.0, max_value=1e-12).map(lambda d: max(1.0 - q1 - d, 0.0)),
    ))
    if q1 + q2 > 1.0:
        q2 = max(1.0 - q1, 0.0)
    return StateParams(q1, q2)
