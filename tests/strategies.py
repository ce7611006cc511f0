"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st


@st.composite
def density_matrices(draw):
    """A random pure state |v><v| or a random mixed state G G† / tr."""
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    if draw(st.booleans()):
        v = x[:4] + 1j * x[4:8]
        rho = np.outer(v, v.conj())
    else:
        g = (x[:16] + 1j * x[16:]).reshape(4, 4)
        rho = g @ g.conj().T
    trace = float(np.trace(rho).real)
    assume(trace > 1e-3)
    return rho / trace
