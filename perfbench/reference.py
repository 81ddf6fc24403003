"""Pure-Python references for the benchmark's output checks.

Nothing here imports kelly_memory: the checks must hold even if a change
to the package breaks its own arithmetic. Every horizon of the scenario
table comes from one p_k pass plus prefix sums, so these stay cheap at
the benchmark's sizes.
"""

from __future__ import annotations

import math


def p_sequence(omega, history, n):
    """[p_0, ..., p_{n-1}] from p_k = w0 + sum_i wi (2 p_{k-i} - 1).

    ``history`` is most recent first; p_{-i} = (x_{-i} + 1) / 2.
    """
    w0, lags = omega[0], list(omega[1:])
    window = [(x + 1) / 2 for x in history]
    out = []
    for _ in range(n):
        p = w0 + sum(w * (2.0 * q - 1.0) for w, q in zip(lags, window))
        out.append(p)
        window = [p] + window[:-1]
    return out


def p_inf(omega):
    total = sum(omega[1:])
    return (omega[0] - total) / (1.0 - 2.0 * total)


def elg_constant(h, k):
    """ELG of a constant fraction k when the expected head share is h."""
    return h * math.log1p(k) + (1.0 - h) * math.log1p(-k)


def _stage_elg(p):
    """Per-stage ELG of the stage-optimal fraction 2p - 1."""
    return p * math.log1p(2.0 * p - 1.0) + (1.0 - p) * math.log1p(1.0 - 2.0 * p)


def scenario_rows(omega, history, n_max):
    """Rows (n, elg_kstar, elg_kn, elg_kvec, kstar, kn) for n = 1..n_max."""
    kstar = 2.0 * p_inf(omega) - 1.0
    heads = vec = 0.0
    rows = []
    for n, p in enumerate(p_sequence(omega, history, n_max), start=1):
        heads += p
        vec += _stage_elg(p)
        h = heads / n
        kn = 2.0 * h - 1.0
        rows.append((n, elg_constant(h, kstar), elg_constant(h, kn), vec / n, kstar, kn))
    return rows


def kelly(omega, history, n):
    """The ``kelly`` command's values: kstar, kn, kinf and the kvec list."""
    p = p_sequence(omega, history, n)
    kstar = 2.0 * p_inf(omega) - 1.0
    return {
        "kstar": kstar,
        "kn": 2.0 * math.fsum(p) / n - 1.0,
        "kinf": kstar,
        "kvec": [2.0 * q - 1.0 for q in p],
    }


def standard_elgs(omega, history, n):
    """Analytic ELG of the three standard bettors over horizon n."""
    p = p_sequence(omega, history, n)
    h = math.fsum(p) / n
    return {
        "kstar": elg_constant(h, 2.0 * p_inf(omega) - 1.0),
        "kn": elg_constant(h, 2.0 * h - 1.0),
        "kvec": math.fsum(_stage_elg(q) for q in p) / n,
    }


def close(printed, ref, sig):
    """True when ``printed`` is ``ref`` shown to ``sig`` significant digits.

    Half a unit in the last printed digit is at most 5 * 10^-sig of the
    value; the absolute floor absorbs float noise in values near zero.
    """
    return abs(printed - ref) <= 5.0 * 10.0 ** -sig * abs(ref) + 1e-13


def diamond_distance(omega):
    """|w0 - 1/2| + sum |wi|; the hyperdiamond is where this is below 1/2."""
    return abs(omega[0] - 0.5) + sum(abs(w) for w in omega[1:])
