"""Layer probes: one public entry point each, timed in isolation.

They run with the tracing wrappers removed and are reported as per-layer
metrics: the cost per point of a vector kernel at the 15-element size one
G7/K15 panel sends and at a 1500-element batch, one first-panel
``integrate_finite`` call, and ``epsilon_extrapolate`` on 20, 50 and 100
partial sums.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from besselint import quad, specfun

ROUND_S = 0.02   # each timing round repeats the call for at least this long
ROUNDS = 5


def per_call_s(fn) -> float:
    """Median over rounds of the mean time of one call."""
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(ROUND_S / max(time.perf_counter() - t0, 1e-7)))
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        rounds.append((time.perf_counter() - t0) / reps)
    return statistics.median(rounds)


def probe_metrics(seed: int) -> dict:
    """Probe name -> {"value", "unit"}."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in (15, 1500):
        x = np.sort(rng.uniform(0.5, 20.0, n))
        z = -np.sort(rng.uniform(0.0, 50.0, n))
        calls = {
            "kelvin_ber_vec": lambda: specfun.kelvin_ber_vec(1.0, x),
            "kelvin_bei_vec": lambda: specfun.kelvin_bei_vec(1.0, x),
            "hyp0f3_vec": lambda: specfun.hyp0f3_vec(1.5, 2.0, 2.5, z),
        }
        for name, fn in calls.items():
            out[f"probe.{name}.ns_per_point.n{n}"] = {
                "value": per_call_s(fn) * 1e9 / n, "unit": "ns"}

    # exp on [0, 1] meets tol on the first 15-node panel
    panel = quad.integrate_finite(np.exp, 0.0, 1.0, 1e-10)
    if not (panel.converged and panel.terms_or_nodes_used == 15):
        raise RuntimeError(f"panel probe left its first panel: {panel}")
    out["probe.integrate_finite.panel_us"] = {
        "value": per_call_s(lambda: quad.integrate_finite(np.exp, 0.0, 1.0, 1e-10)) * 1e6,
        "unit": "us"}

    # partial sums of the alternating harmonic series, whose limit is log 2
    sums = np.cumsum([(-1.0) ** k / (k + 1) for k in range(100)]).tolist()
    for n in (20, 50, 100):
        r = quad.epsilon_extrapolate(sums[:n])
        if abs(r.value - math.log(2.0)) > 1e-10:
            raise RuntimeError(f"epsilon probe missed log 2 at n={n}: {r.value!r}")
        out[f"probe.epsilon_extrapolate.us.n{n}"] = {
            "value": per_call_s(lambda: quad.epsilon_extrapolate(sums[:n])) * 1e6,
            "unit": "us"}
    return out
