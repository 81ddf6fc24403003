"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from kelly_memory import model


@st.composite
def valid_games(draw):
    """(params, history): depth 1 to 6, anywhere in the hyperdiamond."""
    m = draw(st.integers(1, 6))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = draw(st.lists(coord, min_size=m + 1, max_size=m + 1))
    radius = draw(st.floats(0.0, 0.5 - 1e-6))
    size = sum(abs(v) for v in raw)
    scale = radius / size if size > 0 else 0.0
    omega = [0.5 + scale * raw[0]] + [scale * v for v in raw[1:]]
    history = draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    return model.validate_params(omega), model.History(tuple(history))
