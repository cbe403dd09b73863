"""The three benchmark workloads: inputs, passes and correctness checks.

Every workload builds its inputs from the seed, and computes the
references it checks against, before any timing starts.  A pass issues
the workload's operations once through the public API of ``besselint``.
Functions are looked up on their module when they are called, so a pass
made while :class:`layertrace.Tracer` is installed goes through the tracing
wrappers and a pass made without it does not.

* ``verify-all`` -- the documented command
  ``besselint verify all --json --out <tmp> --jobs 2`` run in-process
  through ``cli.main``: 163 default-grid points over 33 identities.  The
  14 identities whose integrands call the Kelvin or 0F3 vector kernels
  make those kernels the largest layer, and ``--jobs 2`` is the only
  workload on the thread-pool path of ``run_all``.  The command runs once
  per run, before timing, as the correctness gate and the warm-up.  The
  timed part is a serial ``catalog.verify`` sweep over the same points,
  repeated for the rest of the run: a 2-s command on two threads gives a
  handful of samples a run, each disturbed by whatever else shares either
  core, and its fastest time moved by 30% from run to run, while the
  sweep gives each point a median over its repeats.
* ``quad-grid`` -- serial ``catalog.verify`` calls at seeded off-grid
  points of the 11 non-watch identities whose integrands call no specfun
  vector kernel.  The quadrature engines do nearly all the work, and
  I-2.7 points with b/a near 1 put the oscillatory engine's Wynn table
  into the latency tail.  It exercises quadrature and bypasses the
  vector kernels.
* ``kernels`` -- direct scalar, vector and series library calls with no
  quadrature: the specfun and series layers alone, at the 15-element size
  quadrature sends today and at 1500 elements.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import statistics
import time

import mpmath
import numpy as np
from scipy import special as sp

from besselint import catalog, cli, series, specfun

TOL = catalog.DEFAULT_TOLERANCES
PERTURB = 0.3          # quad-grid: parameters are scaled by exp(U(-PERTURB, PERTURB))
DRAWS_PER_BASE = 3     # quad-grid: perturbed copies of each default-grid point
INTEGER_PARAMS = ("r", "m", "n")
QUAD_GRID_IDS = ("I-2.6", "I-2.7", "I-2.12", "I-2.25", "I-2.26", "I-2.31",
                 "I-2.32", "I-2.39", "I-3.8", "I-3.20", "I-3.22")

# Perturbed I-2.7 points stay at b/a <= 0.8; draws past it are redrawn and
# counted.  From b/a = 0.918 the oscillatory engine's Wynn extrapolation
# can stagnate at its 200-cell cap and the point ends inconclusive, and a
# workload may hold no failing operation.  Between 0.8 and 0.9 a point
# costs 40-170 ms, so whether a seed draws one would move ops_per_s by up
# to 30%; the hard point at b/a = 0.9, in every pass, carries that tail.
MAX_I27_RATIO = 0.8

# kernels: a result is compared with its reference relative to the larger
# of |reference| and this share of the series' absolute sum, so that a
# value next to a zero of an oscillating series is not held to a relative
# error its own cancellation makes unreachable
CANCELLATION_SHARE = 1e-6

REF_DPS = 20           # mpmath working precision of the kernel references
# kernels: calls per pass of each scalar Kelvin/0F1/0F3 kernel, each bessel_*
# wrapper, each vector kernel at 15 and at 1500 elements, and each series
# evaluator; enough that the p90 op does not depend on the seed's draws
SCALAR_CALLS, BESSEL_CALLS, PANEL_CALLS, BATCH_CALLS, SERIES_CALLS = 48, 24, 12, 2, 24


def _spread(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one drawn in each of n equal strata of [lo, hi], shuffled.

    Stratifying keeps the cost of a pass nearly independent of the seed.
    """
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


class Op:
    """One library call, looked up on its module when it runs."""

    __slots__ = ("module", "fname", "args", "check")

    def __init__(self, module, fname: str, args: tuple, check):
        self.module = module
        self.fname = fname
        self.args = args
        self.check = check      # result -> None when correct, else a message

    def __call__(self):
        return getattr(self.module, self.fname)(*self.args)

    def label(self) -> str:
        return f"{self.module.__name__}.{self.fname}{self.args!r}"[:240]

    def code(self) -> str:
        """Source that makes this call in a fresh interpreter."""
        mod = self.module.__name__
        return f"import {mod}\n{mod}.{self.fname}(*{self.args!r})"


class PassResult:
    def __init__(self):
        self.ops = 0
        self.seconds = 0.0
        self.latencies: list[float] = []    # one per op, in op order
        self.failures: list[str] = []
        self.report_bytes = 0


def run_ops(ops: list[Op]) -> PassResult:
    """Issue each op once, timing it and checking its result."""
    res = PassResult()
    clock = time.perf_counter
    t_pass = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op()
        except Exception as exc:  # a raising call is a failed operation
            res.latencies.append(clock() - t0)
            res.failures.append(f"{op.label()}: raised {exc!r}")
            continue
        res.latencies.append(clock() - t0)
        msg = op.check(out)
        if msg is not None:
            res.failures.append(f"{op.label()}: {msg}")
    res.seconds = clock() - t_pass
    res.ops = len(ops)
    return res


# Timings are each op's median over a run's repeats.  On a shared machine
# other tenants slow the program by up to 1.7x, in stretches of seconds to
# minutes, and quiet moments can be rare for minutes on end: an op's
# fastest repeat then reads the floor in one run and 1.7x over it in the
# next, while its median follows the state most of the run was in.  Over
# 28-s windows of 150-300-s recordings on two vCPUs, sums of per-op medians
# spread (IQR/median) 0.02-0.07 and sums of per-op minima 0.04-0.36.

def median_latencies(passes: list[PassResult]) -> list[float]:
    """Each op's median latency across passes, in op order."""
    return [statistics.median(col) for col in zip(*(p.latencies for p in passes))]


def latency_ms(latencies: list[float]) -> tuple[float, float]:
    """p50 and p90 over ops, in ms."""
    return (statistics.median(latencies) * 1e3,
            statistics.quantiles(latencies, n=10)[8] * 1e3)


class OpListWorkload:
    """A workload whose pass is a fixed list of timed library calls."""

    ops: list[Op]

    def first_call_code(self) -> str:
        return self.ops[0].code()

    def trace_pass(self) -> PassResult:
        return run_ops(self.ops)

    def measure(self, seconds: float) -> dict:
        self.ops[0]()  # warm-up, untimed
        passes = []
        t_end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < t_end:
            passes.append(run_ops(self.ops))
        typical = median_latencies(passes)
        p50, p90 = latency_ms(typical)
        # a pass made of each op's median repeat
        return {"ops_per_s": len(typical) / sum(typical), "op_p50_ms": p50, "op_p90_ms": p90,
                "attempted": sum(p.ops for p in passes),
                "failures": [f for p in passes for f in p.failures],
                "passes": len(passes)}


# ----------------------------------------------------------------------
# verification points
# ----------------------------------------------------------------------

def _verdict_check(ident: str, point: dict):
    """Checker of (status, note) for one catalog point at the seed revision."""
    if ident == "I-3.21" and point["nu"] != 0.5:
        # watch identity: its printed form holds only on the nu = 1/2 slice
        def check(status, note):
            if status == "inconclusive" and "lhs/rhs" in note:
                return None
            return f"expected inconclusive with a lhs/rhs ratio, got {status} ({note})"
    else:
        def check(status, note):
            return None if status == "pass" else f"expected pass, got {status} ({note})"
    return check


def _verify_op(ident: str, point: dict) -> Op:
    check = _verdict_check(ident, point)
    return Op(catalog, "verify", (ident, point), lambda r: check(r.status, r.note))


class VerifyAll(OpListWorkload):
    name = "verify-all"

    def __init__(self, seed: int, tmpdir):
        self.points = [(r.id, dict(p)) for r in catalog.list_identities()
                       for p in r.space.grid()]
        self.expected = {(i, catalog.point_key(p)): _verdict_check(i, p) for i, p in self.points}
        order = list(self.points)
        random.Random(seed).shuffle(order)
        self.ops = [_verify_op(i, p) for i, p in order]
        self.out = tmpdir / f"verify-all-{seed}.json"
        self.argv = ["verify", "all", "--json", "--out", str(self.out), "--jobs", "2"]

    def info(self) -> list[str]:
        return [f"{len(self.points)} default-grid points over "
                f"{len(catalog.list_identities())} identities; "
                f"command: besselint {' '.join(self.argv)}"]

    def first_call_code(self) -> str:
        return _verify_op(*self.points[0]).code()

    def cli_pass(self) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        code = cli.main(self.argv)
        res.seconds = time.perf_counter() - t0
        res.ops = len(self.points)
        if code != cli.EXIT_PASS:
            res.failures.append(f"besselint {' '.join(self.argv)} exited {code}")
        text = self.out.read_text(encoding="utf-8")
        res.report_bytes = len(text.encode("utf-8"))
        seen = set()
        for e in json.loads(text)["entries"]:
            key = (e["id"], catalog.point_key(e["params"]))
            check = self.expected.get(key)
            if check is None:
                res.failures.append(f"unexpected report entry {key}")
                continue
            seen.add(key)
            msg = check(e["status"], e.get("note", ""))
            if msg is not None:
                res.failures.append(f"{key}: {msg}")
        res.failures.extend(f"{key}: missing from the report"
                            for key in self.expected.keys() - seen)
        return res

    trace_pass = cli_pass

    def measure(self, seconds: float) -> dict:
        command = self.cli_pass()
        m = super().measure(seconds - command.seconds)
        m["attempted"] += command.ops
        m["failures"] = command.failures + m["failures"]
        m["notes"] = [f"besselint {' '.join(self.argv)}: {command.seconds:.4f} s, "
                      f"{command.ops / command.seconds:.2f} points/s, once, untimed"]
        return m


def _known_defect(ident: str, point: dict) -> bool:
    return ident == "I-2.7" and point["b"] / point["a"] > MAX_I27_RATIO


def quad_grid_points(seed: int) -> tuple[list[tuple[str, dict]], int]:
    """Seeded off-grid points, then each identity's hard points as they are.

    Each default-grid point gives DRAWS_PER_BASE copies whose nonzero
    continuous parameters are each scaled by exp(U(-PERTURB, PERTURB)),
    stratified over the copies; integer parameters stay fixed and a draw
    outside the admissible region is redrawn.  The hard points sit at the
    edge of what the engines resolve (I-2.7 at b/a = 0.9 is the Wynn-table
    tail), so they are kept exact: scaled outward they end inconclusive.
    Also returns how many draws were redrawn for a known defect.
    """
    rng = random.Random(seed)
    points = []
    redraws = 0
    for ident in QUAD_GRID_IDS:
        space = catalog.get_identity(ident).space
        for base in space.default_grid:
            scaled = [k for k, v in base.items() if k not in INTEGER_PARAMS and v != 0.0]
            strata = {k: _spread(rng, DRAWS_PER_BASE, -PERTURB, PERTURB) for k in scaled}
            for i in range(DRAWS_PER_BASE):
                u = {k: strata[k][i] for k in scaled}
                while True:
                    pt = {k: v * math.exp(u[k]) if k in u else v for k, v in base.items()}
                    if space.violated(pt) is None:
                        if not _known_defect(ident, pt):
                            break
                        redraws += 1
                    u = {k: rng.uniform(-PERTURB, PERTURB) for k in scaled}
                points.append((ident, pt))
    points += [(ident, dict(p)) for ident in QUAD_GRID_IDS
               for p in catalog.get_identity(ident).space.hard_points]
    return points, redraws


class QuadGrid(OpListWorkload):
    name = "quad-grid"

    def __init__(self, seed: int, tmpdir):
        self.points, self.redraws = quad_grid_points(seed)
        self.ops = [_verify_op(i, p) for i, p in self.points]

    def info(self) -> list[str]:
        n = len(self.points)
        tail = sum(1 for i, p in self.points if i == "I-2.7" and p["b"] / p["a"] >= 0.9)
        return [f"{n} points over {len(QUAD_GRID_IDS)} identities: {DRAWS_PER_BASE} per "
                f"default-grid point scaled by exp(U(-{PERTURB}, {PERTURB})), "
                "plus the hard points",
                f"I-2.7 points with b/a >= 0.9: {tail}/{n} = {tail / n:.4f}",
                f"I-2.7 draws redrawn past b/a = {MAX_I27_RATIO}: {self.redraws}"]


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

def _scalar_check(ref: float, scale: float, tol: float):
    """Converged EvalResult within tol * scale of the reference."""
    def check(r):
        if not r.converged:
            return f"not converged ({r.note})"
        if not math.isfinite(r.value):
            return "non-finite value"
        err = abs(r.value - ref)
        if err > tol * scale:
            return f"{r.value!r} vs reference {ref!r}: error {err:.3g} > {tol * scale:.3g}"
        return None
    return check


def _array_check(ref: np.ndarray, scale: np.ndarray, tol: float):
    def check(v):
        v = np.asarray(v, dtype=float)
        if v.shape != ref.shape:
            return f"shape {v.shape} != {ref.shape}"
        if not np.all(np.isfinite(v)):
            return "non-finite elements"
        err = np.abs(v - ref) / scale
        if np.any(err > tol):
            i = int(np.argmax(err))
            return (f"{int(np.sum(err > tol))} elements off; worst at {i}: "
                    f"{v[i]!r} vs reference {ref[i]!r}")
        return None
    return check


def _kelvin_ref(nu: float, x):
    """ber, bei and |ber + i bei| from J_nu(x e^(3 pi i / 4))."""
    z = sp.jv(nu, np.asarray(x, dtype=float) * cmath.exp(0.75j * math.pi))
    return np.real(z), np.imag(z), np.abs(z)


def _mp_hyp(bs, z) -> tuple[float, float]:
    """0Fq(;bs;z) and its absolute series sum 0Fq(;bs;|z|), by mpmath."""
    return float(mpmath.hyper([], bs, z)), float(mpmath.hyper([], bs, abs(z)))


def _envelope(nu, x):
    """sqrt(J_nu^2 + Y_nu^2): the amplitude of the oscillation of J_nu at x."""
    return np.hypot(sp.jv(nu, x), sp.yv(nu, x))


def _laplace_bessel(alpha: float, factors, power: int = 0) -> float:
    """int_0^oo e^(-alpha x) x^(power/2) prod J_m(beta sqrt x) dx with mpmath.quad.

    Integrated over u = sqrt(x), where the integrand decays like a Gaussian.
    """
    def f(u):
        u = float(u)
        v = 2.0 * u ** (1 + power) * math.exp(-alpha * u * u)
        for m, beta in factors:
            v *= sp.jv(m, beta * u)
        return v

    s = 1.0 / math.sqrt(alpha)
    with mpmath.workdps(15):
        return float(mpmath.quad(f, [0, s, 2 * s, 4 * s, 8 * s, mpmath.inf]))


BESSEL_REFS = {  # name -> (mpmath reference, lowest order, oscillates)
    "bessel_j": (mpmath.besselj, -2.0, True),
    "bessel_y": (mpmath.bessely, -2.0, True),
    "bessel_i": (mpmath.besseli, 0.0, False),
    "bessel_i_scaled": (lambda nu, x: mpmath.besseli(nu, x) * mpmath.exp(-x), 0.0, False),
    "bessel_k": (mpmath.besselk, 0.0, False),
    "bessel_k_scaled": (lambda nu, x: mpmath.besselk(nu, x) * mpmath.exp(x), 0.0, False),
}


def kernel_ops(seed: int) -> list[Op]:
    """The kernels pass: seeded library calls with their references."""
    with mpmath.workdps(REF_DPS):
        return _kernel_ops(seed)


def _kernel_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)

    def spread(n, lo, hi):
        return _spread(rng, n, lo, hi)

    nprng = np.random.default_rng(seed)
    easy = TOL["easy"]
    ops = []

    for fname, part in (("kelvin_ber", 0), ("kelvin_bei", 1)):
        for nu, x in zip(spread(SCALAR_CALLS, -2.0, 6.0),
                         spread(SCALAR_CALLS, 0.5, 30.0)):
            ref = _kelvin_ref(nu, x)
            ops.append(Op(specfun, fname, (nu, x),
                          _scalar_check(float(ref[part]), float(ref[2]), easy)))

    for c, z in zip(spread(SCALAR_CALLS, 0.5, 3.0), spread(SCALAR_CALLS, -25.0, 25.0)):
        ref, total = _mp_hyp([c], z)
        ops.append(Op(specfun, "hyp0f1", (c, z),
                      _scalar_check(ref, max(abs(ref), CANCELLATION_SHARE * total), easy)))
    bs = [spread(SCALAR_CALLS, 0.5, 3.0) for _ in range(3)]
    for b1, b2, b3, z in zip(*bs, spread(SCALAR_CALLS, -60.0, 60.0)):
        ref, total = _mp_hyp([b1, b2, b3], z)
        ops.append(Op(specfun, "hyp0f3", (b1, b2, b3, z),
                      _scalar_check(ref, max(abs(ref), CANCELLATION_SHARE * total), easy)))

    for fname, (mp_fn, lo, oscillates) in BESSEL_REFS.items():
        for nu, x in zip(spread(BESSEL_CALLS, lo, 6.0),
                         spread(BESSEL_CALLS, 0.1, 30.0)):
            ref = float(mp_fn(nu, x))
            scale = float(_envelope(nu, x)) if oscillates else abs(ref)
            ops.append(Op(specfun, fname, (nu, x), _scalar_check(ref, scale, easy)))

    # vector kernels: one G7/K15 panel's worth of points, or a batch of 1500
    for n, calls in ((15, PANEL_CALLS), (1500, BATCH_CALLS)):
        for fname, part in (("kelvin_ber_vec", 0), ("kelvin_bei_vec", 1)):
            for nu, lo in zip(spread(calls, -2.0, 6.0), spread(calls, 0.05, 28.0)):
                x = np.sort(nprng.uniform(lo, lo + 2.0, n) if n == 15
                            else nprng.uniform(0.05, 30.0, n))
                ref = _kelvin_ref(nu, x)
                ops.append(Op(specfun, fname, (nu, x), _array_check(ref[part], ref[2], easy)))
        for c, lo in zip(spread(calls, 0.5, 3.0), spread(calls, -25.0, 15.0)):
            z = np.sort(nprng.uniform(lo, lo + 10.0, n) if n == 15
                        else nprng.uniform(-25.0, 25.0, n))
            ref = sp.hyp0f1(c, z)
            scale = np.maximum(np.abs(ref), CANCELLATION_SHARE * sp.hyp0f1(c, np.abs(z)))
            ops.append(Op(specfun, "hyp0f1_vec", (c, z), _array_check(ref, scale, easy)))
        bs = [spread(calls, 0.5, 3.0) for _ in range(3)]
        for b1, b2, b3, lo in zip(*bs, spread(calls, -60.0, 50.0)):
            z = np.sort(nprng.uniform(lo, lo + 10.0, n) if n == 15
                        else nprng.uniform(-60.0, 60.0, n))
            pairs = [_mp_hyp([b1, b2, b3], float(v)) for v in z]
            ref = np.array([p[0] for p in pairs])
            scale = np.maximum(np.abs(ref), CANCELLATION_SHARE * np.array([p[1] for p in pairs]))
            ops.append(Op(specfun, "hyp0f3_vec", (b1, b2, b3, z), _array_check(ref, scale, easy)))

    # series evaluators, checked against the integrals or products they sum
    alphas = spread(SERIES_CALLS, 0.35, 2.0)
    betas = [spread(SERIES_CALLS, 0.0, 2.0) for _ in range(3)]
    for al, b1, b2, b3 in zip(alphas, *betas):
        ref = _laplace_bessel(al, [(0, b1), (0, b2), (0, b3)])
        ops.append(Op(series, "weber_triple", (series.TripleParams(al, b1, b2, b3),),
                      _scalar_check(ref, abs(ref), easy)))
    alphas = spread(SERIES_CALLS, 0.5, 2.0)
    b1s = spread(SERIES_CALLS, 0.0, 2.0)
    b23 = [spread(SERIES_CALLS, 0.3, 2.0) for _ in range(2)]
    # m = 1 only: from m = 2 the numerical m-th derivative misses the hard
    # tolerance off the catalog grid, with relative errors up to ~1e-3
    for al, b1, b2, b3 in zip(alphas, b1s, *b23):
        ref = _laplace_bessel(al, [(0, b1), (1, b2), (1, b3)])
        ops.append(Op(series, "weber_triple_m", (series.TripleParams(al, b1, b2, b3, 1),),
                      _scalar_check(ref, abs(ref), TOL["hard"])))
    alphas = spread(SERIES_CALLS, 0.35, 2.0)
    b1s = spread(SERIES_CALLS, 0.0, 2.0)
    b2s = spread(SERIES_CALLS, 0.3, 2.0)
    for i, (al, b1, b2) in enumerate(zip(alphas, b1s, b2s)):
        m = i % 5
        ref = _laplace_bessel(al, [(0, b1), (m, b2)], power=m)
        ops.append(Op(series, "weber_j0jm_limit", (al, b1, b2, m),
                      _scalar_check(ref, abs(ref), easy)))
    orders = [spread(SERIES_CALLS, 0.0, 2.0) for _ in range(2)]
    for mu, nu, a, ratio, ax in zip(*orders, spread(SERIES_CALLS, 0.5, 2.0),
                                    spread(SERIES_CALLS, 0.2, 1.0),
                                    spread(SERIES_CALLS, 0.5, 10.0)):
        b, x = a * ratio, ax / a
        ref = float(sp.jv(mu, a * x) * sp.jv(nu, b * x))
        scale = max(abs(ref), float(_envelope(mu, a * x) * _envelope(nu, b * x)))
        ops.append(Op(series, "product_jj_gauss", (mu, nu, a, b, x),
                      _scalar_check(ref, scale, easy)))
    for nu, a, b, cx in zip(spread(SERIES_CALLS, 0.0, 2.0), spread(SERIES_CALLS, 0.5, 2.0),
                            spread(SERIES_CALLS, 0.5, 2.0), spread(SERIES_CALLS, 0.5, 12.0)):
        x = cx / math.hypot(a, b)
        ref = float(sp.jv(nu, a * x) * sp.jv(nu, b * x))
        scale = max(abs(ref), float(_envelope(nu, a * x) * _envelope(nu, b * x)))
        ops.append(Op(series, "product_jj_neumann", (nu, a, b, x),
                      _scalar_check(ref, scale, easy)))
    for c, x, y in zip(spread(SERIES_CALLS, 0.5, 3.0), spread(SERIES_CALLS, -4.0, 4.0),
                       spread(SERIES_CALLS, -4.0, 4.0)):
        fx, sx = _mp_hyp([c], x)
        fy, sy = _mp_hyp([c], y)
        ref = fx * fy
        ops.append(Op(series, "hyp0f1_product", (c, x, y),
                      _scalar_check(ref, max(abs(ref), CANCELLATION_SHARE * sx * sy), easy)))
    return ops


class Kernels(OpListWorkload):
    name = "kernels"

    def __init__(self, seed: int, tmpdir):
        self.ops = kernel_ops(seed)

    def info(self) -> list[str]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.fname] = counts.get(op.fname, 0) + 1
        return [f"{len(self.ops)} library calls: "
                + ", ".join(f"{k} {v}" for k, v in counts.items())]


WORKLOADS = {w.name: w for w in (VerifyAll, QuadGrid, Kernels)}
