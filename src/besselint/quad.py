"""Numerical integration engines.

Three entry points, all returning :class:`~besselint.specfun.EvalResult`:

* :func:`integrate_finite` -- adaptive Gauss-Kronrod (G7/K15) quadrature
  with declared-endpoint-singularity transforms, refined in rounds: each
  round splits the worst intervals until their errors cover the excess
  over the target and evaluates all new panels in one integrand call per
  piece (Shampine's vectorized adaptive quadrature).  Interior intervals
  are bisected; an interval at an end of its piece is graded
  geometrically toward that end, as deep as the contraction of its error
  since its last cut says the target needs (or twice as deep as it is),
  which finds an undeclared log or power singularity there in a round or
  two.  A run whose error stops falling ends as stagnated;
* :func:`integrate_semiinf_decaying` -- semi-infinite integrals whose
  integrand decays at least like exp(-rate*x): one head pass over
  [a, a + 30/rate] whose first integrand call also samples the tail, an
  analytic tail bound, and a finite extension only where the bound asks
  for one;
* :func:`integrate_semiinf_oscillatory` -- conditionally convergent
  oscillatory integrals over [a, oo) whose continuation into the upper
  half-plane decays: the finite engine on the head [a, x0], then the tail
  up the vertical ray x0 + iy, where it neither oscillates nor decays
  slower than exp(-rate*y), by the decaying engine.

Each engine takes the integrand and the interval start, then what it
needs to know of the integrand's behaviour (the interval end, the decay
rate, or the ray's foot, the continuation and its decay rate), then the
relative tolerance, and spends at most ``max_evals`` integrand nodes.
Integrands are vectorized callables ``f(x: float64 array) -> array`` that
return one value per node, in the shape of ``x``; wrap one in
:class:`Integrand` to declare endpoint singularities.
Singularity handling is hint-driven (never auto-detected): a declared
endpoint behaviour ``|x - e|**gamma`` is divided out pointwise and the
exact power restored under a ``u = e -+ s**p`` substitution, which keeps
the factor accurate even when ``u`` rounds onto the endpoint or comes
nearer to it than f can be evaluated.  :func:`epsilon_extrapolate`
accelerates a sequence of partial sums with Wynn's epsilon table.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .specfun import DomainError, EvalResult

__all__ = [
    "EndpointSingularity",
    "Integrand",
    "integrate_finite",
    "integrate_semiinf_decaying",
    "integrate_semiinf_oscillatory",
    "epsilon_extrapolate",
]

_EPS = 2.0 ** -52

# Smallest distance from a declared endpoint at which an offset form is
# evaluated; |h|**gamma stays finite there for every gamma > -1.
_H_FLOOR = 1e-280


# ----------------------------------------------------------------------
# integrand descriptors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointSingularity:
    """Declared algebraic behaviour f ~ C * |x - location|**exponent.

    ``exponent`` must exceed -1 (integrable).  Non-negative non-integer
    exponents are also useful hints: the same transform restores
    smoothness of derivatives at the endpoint.

    ``offset_fn``, when given, evaluates the integrand as a function of
    the exact distance h > 0 from the endpoint into the interval
    (i.e. f(location + h) for a left endpoint, f(location - h) for a
    right one).  Supplying it avoids the precision loss of recovering
    h from a rounded abscissa and is the preferred form whenever the
    singular factor can be written in terms of h directly.
    """

    location: float
    exponent: float
    offset_fn: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class Integrand:
    """A deterministic scalar-field integrand with evaluation hints."""

    fn: Callable[[np.ndarray], np.ndarray]
    singularities: tuple[EndpointSingularity, ...] = ()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


def _as_integrand(f) -> Integrand:
    if isinstance(f, Integrand):
        return f
    return Integrand(fn=f)


# ----------------------------------------------------------------------
# Gauss-Kronrod 7/15 pair (QUADPACK abscissae/weights)
# ----------------------------------------------------------------------

_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

# Gauss-7 weights sit on the odd-indexed Kronrod nodes.
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

# The Kronrod nodes mapped onto [0, 1], and half the weights in two
# columns, K15 and K15 - G7: a panel's row of values times _W, times its
# width, is its K15 estimate and the K15 - G7 difference.  _E weighs
# their magnitudes into the error estimate |K15 - G7| + eps |K15|.
_U = 0.5 + 0.5 * _XGK
_W = 0.5 * np.column_stack((_WGK, _WGK))
_W[1::2, 1] -= 0.5 * _WG
_E = np.array([_EPS, 1.0])


def _gk15(fn, lo: np.ndarray, hi: np.ndarray):
    """G7/K15 estimates on the k panels [lo[i], hi[i]] from one call of fn.

    fn sees all k*15 nodes at once; series kernels cost per call, not per
    point.  Returns (values, errors, note) with values and errors as
    lists: ``note`` is empty on success and names the fault, with values
    and errors None, when fn returned the wrong shape or a non-finite
    value.
    """
    d = hi - lo
    x = np.multiply.outer(d, _U)
    x += lo[:, None]
    x = x.ravel()
    y = np.asarray(fn(x), dtype=float)
    if y.shape != x.shape:
        return None, None, f"integrate_finite: integrand returned shape {y.shape} for {x.size} nodes"
    kg = y.reshape(-1, 15) @ _W
    kg *= d[:, None]
    # a non-finite node value makes its panel's sums non-finite, so the
    # 15k values need a scan only when the sums fail it
    if not math.isfinite(kg.sum()) and not np.isfinite(y).all():
        return None, None, "integrate_finite: non-finite integrand value"
    return kg[:, 0].tolist(), (np.abs(kg) @ _E).tolist(), ""


# ----------------------------------------------------------------------
# endpoint-singularity transforms
# ----------------------------------------------------------------------

def _regularized_piece(f: Callable, lo: float, hi: float,
                       sing: EndpointSingularity, at_lo: bool,
                       use_offset: bool = True):
    """Map [lo, hi] with an algebraic endpoint onto a smooth s-integral.

    Substitutes u = e -+ s**p and evaluates the smooth factor
    C(u) = f(u) * |u - e|**(-gamma) before restoring |u - e|**gamma as an
    exact power of s, so the singular factor never goes through the
    rounded abscissa.  ``use_offset`` is disabled for interior split
    points, whose offset form would be direction-ambiguous.
    """
    g = float(sing.exponent)
    e = float(sing.location)
    p = max(2, math.ceil(2.0 / (1.0 + g))) if g < 0 else 2
    width = hi - lo
    smax = width ** (1.0 / p)
    power = p * (1.0 + g) - 1.0  # >= 0 by construction
    sign = 1.0 if at_lo else -1.0
    tiny = _EPS * max(abs(e), 1.0)

    if sing.offset_fn is not None and use_offset:
        off = sing.offset_fn

        def wrapped(s: np.ndarray) -> np.ndarray:
            # with gamma near -1, p is large and s**p underflows near s = 0,
            # where off would be inf: take C = off(h) * h**-gamma at
            # h >= _H_FLOOR, where it has stopped changing, and restore the
            # singular factor as an exact power of s
            h = np.maximum(s ** p, _H_FLOOR)
            return np.asarray(off(h), dtype=float) * h ** (-g) * p * s ** power

        return wrapped, 0.0, smax

    def wrapped(s: np.ndarray) -> np.ndarray:
        h = s ** p
        u = e + sign * h
        h_repr = np.abs(u - e)
        # nearer e than tiny, take C at e -+ tiny: C has stopped changing at
        # rounding level there, while f itself can overflow (a factor x**-s
        # of an f ~ x**gamma at e = 0, once p is large)
        u_safe = np.where(h_repr >= tiny, u, e + sign * tiny)
        # divide out the singular factor exactly as f saw it, then restore
        # it as an exact power of s
        h_seen = np.abs(u_safe - e)
        c_smooth = np.asarray(f(u_safe), dtype=float) * h_seen ** (-g)
        return c_smooth * p * s ** power

    return wrapped, 0.0, smax


def _split_pieces(f: Integrand, a: float, b: float):
    """Return a list of (callable, lo, hi) covering [a, b] after transforms.

    Interior singular points become endpoints of sub-pieces and get the
    same power substitution on both sides.
    """
    tol_pos = 1e-12 * max(abs(a), abs(b), 1.0)
    lo_sing = hi_sing = None
    interior: list[EndpointSingularity] = []
    for s in f.singularities:
        if abs(s.location - a) <= tol_pos:
            lo_sing = s
        elif abs(s.location - b) <= tol_pos:
            hi_sing = s
        elif a < s.location < b:
            interior.append(s)
    interior.sort(key=lambda s: s.location)
    marks = [(a, lo_sing, True)] + [(s.location, s, False) for s in interior] \
        + [(b, hi_sing, True)]
    pieces = []
    for (p0, s0, off0), (p1, s1, off1) in zip(marks[:-1], marks[1:]):
        if s0 is None and s1 is None:
            pieces.append((f.fn, p0, p1))
        elif s1 is None:
            pieces.append(_regularized_piece(f.fn, p0, p1, s0, True, off0))
        elif s0 is None:
            pieces.append(_regularized_piece(f.fn, p0, p1, s1, False, off1))
        else:
            mid = 0.5 * (p0 + p1)
            pieces.append(_regularized_piece(f.fn, p0, mid, s0, True, off0))
            pieces.append(_regularized_piece(f.fn, mid, p1, s1, False, off1))
    return pieces


# ----------------------------------------------------------------------
# adaptive engine
# ----------------------------------------------------------------------

def _graded_split(lo: float, hi: float, toward_lo: bool, depth: int, halvings: int):
    """The pieces ``halvings`` rounds of halving [lo, hi] toward one end would make.

    Returns their edges and their halvings from the initial width, or None
    when fewer than two cuts fit.  The cuts are successive midpoints toward
    lo (or hi), none nearer that end than 1024 eps * max(|lo|, |hi|, 1),
    so that no Kronrod node rounds onto the end itself.
    """
    end, cut = (lo, hi) if toward_lo else (hi, lo)
    floor = 1024.0 * _EPS * max(abs(lo), abs(hi), 1.0)
    cuts = []
    for _ in range(halvings):
        cut = 0.5 * (end + cut)
        if abs(cut - end) < floor:
            break
        cuts.append(cut)
    if len(cuts) < 2:
        return None
    # from the far end in: one halving more per piece, the end piece as deep as its neighbour
    depths = [depth + j for j in range(1, len(cuts) + 1)] + [depth + len(cuts)]
    if toward_lo:
        return [lo, *reversed(cuts), hi], depths[::-1]
    return [lo, *cuts, hi], depths


def integrate_finite(f, a: float, b: float, tol: float, *,
                     abs_floor: float = 0.0,
                     max_evals: int = 1_000_000,
                     initial_intervals: int = 1) -> EvalResult:
    """Adaptive G7/K15 quadrature of f over [a, b], refined in batches.

    Terminates when the summed interval error estimates drop below
    ``target = max(tol * |result|, abs_floor)``.  Each refinement round
    takes the worst intervals until their errors cover the excess over
    the target (at least one interval), splits them and evaluates every
    new panel with one call of f per piece.  An interval is bisected,
    except one that touches an end of its piece: it is cut at once into
    the pieces that k rounds of halving toward that end would make
    (QUADPACK's graded refinement toward a singular end, Piessens et al.
    1983).  When its error is below that of the end interval it was cut
    from, by a factor rho > 1 per halving, k is the predicted depth: the
    halvings after which an error shrinking at that rate is under
    target / 4.  Otherwise k is the halvings it has had since its initial
    width, doubling its depth.  k is capped by what the node budget leaves
    and no cut comes nearer the end than 1024 eps * max(|lo|, |hi|, 1);
    below 2 cuts the interval is bisected.  An unhinted log or power
    singularity at an end then costs one halving and about one predicted
    cut (``log x`` on [0, 1] at tol 1e-12: 4 integrand calls).  Declared
    endpoint singularities are removed by a power substitution before any
    abscissa is generated.

    The first non-finite integrand value, or a result of the wrong shape,
    ends the run unconverged, with a partial sum and an infinite error
    estimate.  A run that has spent more than 4n + 1000 nodes, n the count
    when its summed error last halved, ends unconverged as stagnated: it
    has reached the rounding floor of f (QUADPACK's round-off detection).
    At most ``max_evals`` nodes are spent: every new panel is charged its
    15 nodes before it is evaluated, the initial grid is thinned to fit,
    and a budget below one panel per piece returns unconverged without
    evaluating f.
    """
    a, b = float(a), float(b)
    if not (a < b):
        raise DomainError(f"integrate_finite: requires a < b, got [{a!r}, {b!r}]")
    if not (tol > 0.0):
        raise DomainError(f"integrate_finite: requires tol > 0, got {tol!r}")
    f = _as_integrand(f)

    pieces = _split_pieces(f, a, b) if f.singularities else [(f.fn, a, b)]
    # one slot per panel evaluated: its value and error while it is a leaf
    # (or frozen), zero once it is split
    vals: list[float] = []
    errs: list[float] = []
    # (-err, slot, lo, hi, halvings, piece index, parent), parent the
    # (error, halvings) of the end interval an end interval was cut from
    heap: list = []
    evals = 0

    def evaluate(batch: dict) -> str:
        """Evaluate {piece: ([lo...], [hi...], [halvings...], [parent...])}, a call per piece."""
        nonlocal evals
        for i, (los, his, depths, parents) in batch.items():
            v, e, note = _gk15(pieces[i][0], np.array(los), np.array(his))
            evals += 15 * len(los)
            if note:
                return note
            for slot, (lo, hi, err, d, par) in enumerate(zip(los, his, e, depths, parents),
                                                         len(vals)):
                heapq.heappush(heap, (-err, slot, lo, hi, d, i, par))
            vals.extend(v)
            errs.extend(e)
        return ""

    n0 = min(max(1, int(initial_intervals)), max_evals // (15 * len(pieces)))
    if n0 < 1:
        return EvalResult(0.0, math.inf, False, 0, note="integrate_finite: node budget exhausted")
    grid = {}
    for i, (_, lo, hi) in enumerate(pieces):
        edges = lo + np.arange(n0 + 1) * ((hi - lo) / n0)
        edges[-1] = hi
        grid[i] = (edges[:-1].tolist(), edges[1:].tolist(), [0] * n0, [None] * n0)
    note = evaluate(grid)

    err_mark, nodes_mark = math.inf, 0  # error and nodes at its last halving
    while not note:
        total = math.fsum(vals)
        err_total = math.fsum(errs)
        target = max(tol * abs(total), abs_floor)
        if err_total <= target and not math.isinf(err_total):
            return EvalResult(total, err_total, True, evals)
        if err_total <= 0.5 * err_mark:
            err_mark, nodes_mark = err_total, evals
        spare = max_evals - evals
        if spare < 30 or not heap or evals > 4 * nodes_mark + 1000:
            note = ("integrate_finite: node budget exhausted" if spare < 30
                    else "integrate_finite: no splittable intervals left" if not heap
                    else "integrate_finite: error stagnated")
            return EvalResult(total, err_total if math.isfinite(err_total) else abs(total),
                              False, evals, note=note)
        excess = err_total - target
        covered = 0.0
        taken = 0
        batch: dict = {}
        while heap and spare >= 30 and (taken == 0 or covered < excess):
            _, slot, lo, hi, depth, i, parent = heapq.heappop(heap)
            err = errs[slot]
            taken += 1
            covered += err
            _, plo, phi = pieces[i]
            at_lo, at_hi = lo == plo, hi == phi
            split = None
            if at_lo or at_hi:
                halvings = depth  # doubling its depth
                if parent is not None and 0.0 < err < parent[0]:
                    # enough to bring it under target / 4 if its error keeps
                    # shrinking at the rate per halving it has since its parent
                    need = (math.log(4.0 * err / target) * (depth - parent[1])
                            / math.log(parent[0] / err)) if target > 0.0 else math.inf
                    halvings = max(1, math.ceil(min(need, spare)))
                halvings = min(halvings, spare // 15 - 1)
                if halvings >= 2:
                    split = _graded_split(lo, hi, at_lo, depth, halvings)
            if split is None:
                mid = 0.5 * (lo + hi)
                if not (lo < mid < hi) or (hi - lo) < 16 * _EPS * max(abs(lo), abs(hi), 1.0):
                    # too narrow to subdivide: it keeps its slot, frozen
                    if not math.isfinite(err):
                        errs[slot] = abs(vals[slot]) + 1e-300
                    continue
                split = [lo, mid, hi], [depth + 1] * 2
            edges, depths = split
            vals[slot] = errs[slot] = 0.0
            los, his, ds, parents = batch.setdefault(i, ([], [], [], []))
            los += edges[:-1]
            his += edges[1:]
            ds += depths
            parents += ([(err, depth) if at_lo else None] + [None] * (len(edges) - 3)
                        + [(err, depth) if at_hi else None])
            spare -= 15 * (len(edges) - 1)
        note = evaluate(batch)

    return EvalResult(math.fsum(vals), math.inf, False, evals, note=note)


# ----------------------------------------------------------------------
# semi-infinite, exponentially decaying
# ----------------------------------------------------------------------

# Tail probes at T + (0, 2/rate], in units of 1/rate, and exp(rate * probe)
_PROBES = np.linspace(0.0, 2.0, 6)[1:]
_PROBE_GROWTH = np.exp(_PROBES)


def integrate_semiinf_decaying(f, a: float, rate: float, tol: float, *,
                               abs_floor: float = 1e-300,
                               max_evals: int = 1_000_000) -> EvalResult:
    """Integrate f over [a, oo) for integrands that decay like exp(-rate*x).

    The head [a, t0], t0 = a + 30/rate, is integrated once, at half the
    tolerance; it sets the error budget and is returned as it is when it
    does not converge.  The truncation point T is then pushed out from
    t0 until the sampled-envelope tail bound
    max|f| * exp(-rate*(t-T)) / rate  falls below half the budget, and
    only a T past t0 adds [t0, T] to the head.  The 5 probes at
    t0 + (0, 2/rate] ride the head's first call of f, so a head that
    converges in one round takes one call; a non-finite probe value pushes
    T out.  A bound still not met at a + 900/rate (the rate overstates the
    decay) ends the run unconverged.  The head, the tail probes (5 nodes
    at each T) and [t0, T] share the one ``max_evals``.
    """
    lam = float(rate)
    if not (lam > 0.0):
        raise DomainError(f"integrate_semiinf_decaying: decay rate must be > 0, got {rate!r}")
    f = _as_integrand(f)
    a = float(a)

    def seeds(lo: float, hi: float) -> int:
        return min(64, max(8, int(round((hi - lo) * lam / 4.0))))

    span = 1.0 / lam
    t0 = a + 30.0 * span
    probes = _PROBES * span
    ridden: list = []  # f at t0 + probes, from the head's first call of f

    def head_fn(x: np.ndarray) -> np.ndarray:
        if ridden:
            return f.fn(x)
        y = np.asarray(f.fn(np.concatenate((x, t0 + probes))), dtype=float)
        if y.shape != (x.size + probes.size,):
            return y  # the head reports the shape
        ridden.append(y[x.size:])
        return y[:x.size]

    head = integrate_finite(Integrand(head_fn, f.singularities), a, t0, 0.5 * tol,
                            abs_floor=0.5 * abs_floor, max_evals=max_evals - probes.size,
                            initial_intervals=seeds(a, t0))
    spent = head.terms_or_nodes_used + (probes.size if ridden else 0)
    if not head.converged:
        return EvalResult(head.value, head.abs_err_est, False, spent, note=head.note)
    scale = max(abs(head.value), abs_floor)
    budget = max(tol * scale, abs_floor)

    T = t0
    vals = ridden[0] if ridden else None
    while T <= a + 900.0 * span:
        if vals is None:
            if spent + probes.size > max_evals:
                return EvalResult(head.value, math.inf, False, spent,
                                  note="integrate_semiinf_decaying: node budget exhausted")
            vals = np.asarray(f.fn(T + probes), dtype=float)
            spent += probes.size
        back = np.abs(vals) * _PROBE_GROWTH
        m = float(np.max(back)) if np.all(np.isfinite(back)) else math.inf
        tail_bound = 2.0 * m / lam
        if tail_bound < 0.5 * budget:
            break
        T += 12.0 * span
        vals = None
    else:
        why = "tail bound not met" if math.isfinite(tail_bound) else "tail probe non-finite"
        return EvalResult(head.value, math.inf, False, spent,
                          note=f"integrate_semiinf_decaying: {why}")
    if T == t0:
        return EvalResult(head.value, head.abs_err_est + tail_bound, True, spent)

    rest = integrate_finite(f, t0, T, 0.5 * tol, abs_floor=0.5 * budget,
                            max_evals=max_evals - spent, initial_intervals=seeds(t0, T))
    return EvalResult(head.value + rest.value,
                      head.abs_err_est + rest.abs_err_est + tail_bound,
                      rest.converged, spent + rest.terms_or_nodes_used, note=rest.note)


# ----------------------------------------------------------------------
# semi-infinite oscillatory along a vertical ray
# ----------------------------------------------------------------------

def integrate_semiinf_oscillatory(f, a: float, x0: float,
                                  fc: Callable[[np.ndarray], np.ndarray],
                                  rate: float, tol: float, *,
                                  max_evals: int = 1_000_000) -> EvalResult:
    """Integrate an oscillatory f over [a, oo) as a real head plus a decaying ray.

    ``fc`` is the continuation of f into the quarter-plane Re z >= x0,
    Im z >= 0: an analytic F with Re F = f on [x0, oo) that decays like
    exp(-rate * Im z), evaluated on the ray z = x0 + iy as a complex array
    (it is only called there, so it may fold constants of the ray such as
    exp(i a x0) into its scaled kernels).  By Cauchy's theorem the tail int_x0^oo f dx is then
    -int_0^oo Im F(x0 + iy) dy, a non-oscillating, exponentially decaying
    integral (the rotation of the contour used for Bessel-product
    integrals, DLMF 10.17).

    The head [a, x0] goes through :func:`integrate_finite`, so f's
    :class:`EndpointSingularity` hints apply; the tail goes through
    :func:`integrate_semiinf_decaying` at ``rate``.  Both are asked for
    ``tol`` and share the one ``max_evals``; the tail gets what the head
    left.  The value and the error estimate are the sums of the two parts';
    the run is converged only when both parts are, and its note is the note
    of the first part that is not.
    """
    a, x0 = float(a), float(x0)
    if not (a < x0):
        raise DomainError(f"integrate_semiinf_oscillatory: requires a < x0, got a={a!r}, x0={x0!r}")

    def tail_fn(y: np.ndarray) -> np.ndarray:
        return -np.asarray(fc(x0 + 1j * y)).imag

    head = integrate_finite(f, a, x0, tol, max_evals=max_evals)
    tail = integrate_semiinf_decaying(tail_fn, 0.0, rate, tol,
                                      max_evals=max_evals - head.terms_or_nodes_used)
    return EvalResult(head.value + tail.value, head.abs_err_est + tail.abs_err_est,
                      head.converged and tail.converged,
                      head.terms_or_nodes_used + tail.terms_or_nodes_used,
                      note=head.note or tail.note)


# ----------------------------------------------------------------------
# Wynn's epsilon algorithm
# ----------------------------------------------------------------------

_HUGE = 1e305


def _eps_corners(partial_sums: Sequence[float]) -> list[float]:
    """Last entry of each even epsilon-table column, in column order.

    Each partial sum adds one anti-diagonal to Wynn's epsilon table;
    ``diag[k]`` is the last entry of column k.  Each entry comes from the
    rhombus rule with the already-converged entry propagated where a
    denominator vanishes.
    """
    diag: list[float] = []
    for v in partial_sums:
        new = [float(v)]
        for k in range(1, len(diag) + 1):
            d = new[k - 1] - diag[k - 1]
            base = diag[k - 2] if k >= 2 else 0.0
            if d == 0.0 or not math.isfinite(d):
                new.append(base if k % 2 == 0 else _HUGE)
            else:
                nxt = base + 1.0 / d
                new.append(nxt if math.isfinite(nxt) else (_HUGE if k % 2 else base))
        diag = new
    if len(diag) < 3:
        raise DomainError("epsilon_extrapolate: need at least 3 partial sums")
    return diag[::2]


def epsilon_extrapolate(partial_sums: Sequence[float]) -> EvalResult:
    """Accelerate a sequence of partial sums with Wynn's epsilon table.

    Returns the corner of the even-column diagonal, sharpened by one
    guarded Aitken step over the last three corners (kept only when it
    contracts).  Exact (up to roundoff) on sequences with geometric
    tails; vanishing denominators are guarded by propagating the
    already-converged entry.  The error estimate is the difference of
    the last two even-column corners.
    """
    corners = _eps_corners(partial_sums)
    value = corners[-1]
    err = (abs(corners[-1] - corners[-2]) if len(corners) >= 2 else abs(value)) \
        + 4.0 * _EPS * abs(value)
    if len(corners) >= 3:
        c0, c1, c2 = corners[-3:]
        den = c2 - 2.0 * c1 + c0
        if den != 0.0 and math.isfinite(den):
            cand = c2 - (c2 - c1) ** 2 / den
            if math.isfinite(cand) and abs(cand - c2) < abs(c2 - c1):
                value = cand
    return EvalResult(value, err, True, len(list(partial_sums)))
