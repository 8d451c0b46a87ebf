"""Geodesic flow of the Lorentzian (sign -1) assembled metric.

A state is given and sampled as raw coordinates (x, t) and velocities (dx/dl,
dt/dl) along an affine parameter, and stepped as y = (x, u, vx, w), u = log|t|
and w = u' = vt / t: the frame of the Euler field t d/dt, in which the fiber
motion t0 e^(-q l) of a fiber-independent orbit is linear. The geodesic
equation, vx' = -Gamma^x(V, V) and w' = -Gamma^t(V, V) / t - w^2 with
V = (vx, t w), is integrated with the embedded Tsitouras 5(4) pair (adaptive,
the default, named "rk45") or a fixed-step classical RK4 for convergence
studies. The symbols come from the closed form where it is validated against
the finite-difference oracle, that is where the gauge field is known to
vanish (``GaugeField.is_zero``), and from the oracle everywhere else;
``IntegratorConfig.christoffel = "numeric"`` forces the oracle.
``Trajectory.meta["christoffel"]`` names the route that ran. A step runs on
Python floats, a state of 2n + 2 entries being too small for numpy to pay, as
code generated once per method and dimension (``_step_kernel``) that unrolls
the method's tableau term by term in its order, writes each stage's slope
inline (its guard, the frozen-state shortcut and one call of the
acceleration) and sums the error norm's squares from 0.0 in index order. The
acceleration -Gamma(v, v) is taken given the velocity as ``along``: on the
closed route from the base block's jet (``christoffel_closed``), on the oracle
route from the field values at the stencil points or, above n = 3, the
stacked symbols (``christoffel_numeric``), in generated code that sums as
numpy's einsum does, float for float.

Both flows, the full one (``integrate``) and the weak-gauge-field base
reduction (``integrate_small_gauge``), run through one stepping loop,
``_drive``, which ends a run early with an event record: ``non_finite`` (a
stage or step result is not finite, or its |t| = e^u is past the float range),
``step_underflow``, ``max_steps``, or the flow's guard on an accepted state:
``t_guard`` (the fiber coordinate approaches zero, which the bundle excludes:
u falls below log|t0| + log(T_GUARD_FACTOR); full flow only) and
``left_chart`` (the state leaves a hard chart domain).

Monitors recorded at every sample of the full flow, from omega = w + vx . A:
the conserved fiber charge q = -omega, the null residual
<vx, vx>_gM - omega^2, and the squared base speed.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .connection import GaugeField, curvature
from .errors import ContractViolation, DomainError, NumericError
from .expressions import run_generated
from .geometry import FIBER_CUTOFF, Chart, Point, dot, square
from .kaluza import KKMetric, base_inverse, base_symbols, christoffel_closed, christoffel_numeric
from .scenarios import Scenario


# ---------------------------------------------------------------------------
# states, configuration, trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicState:
    x: np.ndarray
    t: float
    vx: np.ndarray
    vt: float
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "vx", np.atleast_1d(np.asarray(self.vx, dtype=float)))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "vt", float(self.vt))
        if self.x.size != self.vx.size:
            raise ContractViolation("position and velocity dimensions differ")
        state = self.as_vector().tolist()
        if not all(map(math.isfinite, state)):
            raise DomainError(f"non-finite state (x..., t, vx..., vt) = {state}")
        if self.t == 0.0:
            raise DomainError("fiber coordinate must be nonzero")

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def vtb(self) -> float:
        """The fiber rate vt / t; one past the float range (a tiny t) is a DomainError."""
        rate = self.vt / self.t
        if not math.isfinite(rate):
            raise DomainError(f"the fiber rate vt / t = {self.vt:.3e} / {self.t:.3e} overflows")
        return rate

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, [self.t], self.vx, [self.vt]])


# adaptive stepping: underflow floor, step budget
MIN_STEP = 1e-14
MAX_STEPS = 500_000
# the full flow stops once |t| falls below this fraction of its initial value
T_GUARD_FACTOR = 1e-6
_LOG_MAX = math.log(np.finfo(float).max)  # the largest u = log|t| whose e^u is a float


@dataclass
class IntegratorConfig:
    """Stepping settings of both flows. ``tol`` is the tolerance of the
    adaptive method "rk45" (Tsitouras 5(4)), relative and absolute at once: a
    component's error scale is tol + tol * max(|y|, |y_new|). ``lambda_max``
    is the span: the affine parameter of ``integrate``, the log-time u of
    ``integrate_small_gauge``."""

    method: str = "rk45"
    tol: float = 1e-10
    max_step: float = 0.1
    lambda_max: float = 10.0
    # "closed": the closed form where the gauge field vanishes, the oracle
    # elsewhere; "numeric": the oracle everywhere
    christoffel: str = "closed"
    rk4_step: float = 0.01


@dataclass
class Trajectory:
    lam: np.ndarray
    x: np.ndarray  # (m, n)
    t: np.ndarray
    vx: np.ndarray  # (m, n)
    vt: np.ndarray
    charge: np.ndarray
    null_residual: np.ndarray
    base_speed2: np.ndarray
    events: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.lam.size

    def state(self, i: int) -> GeodesicState:
        return GeodesicState(self.x[i], self.t[i], self.vx[i], self.vt[i], self.lam[i])

    @property
    def final(self) -> GeodesicState:
        return self.state(len(self) - 1)

    def max_charge_drift(self) -> float:
        q0 = self.charge[0]
        return float(np.max(np.abs(self.charge - q0))) / max(1.0, abs(q0))

    def max_null_drift(self) -> float:
        return float(np.max(np.abs(self.null_residual - self.null_residual[0])))


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def _along(vx: np.ndarray, field: np.ndarray) -> np.ndarray:
    """vx . g . vx for K samples of vx (K, n) and metric blocks g (K, n, n), vx . a for gauge values a (K, n),
    summed over the stack with elementwise operations as ``_norm`` sums one sample with ``dot``: from 0.0 in
    index order, (vx g)_b = sum_a vx_a g_ab and then sum_b (vx g)_b vx_b. A sample's value is its own."""
    if field.ndim == 3:
        field = np.stack([_along(vx, field[:, :, b]) for b in range(field.shape[2])], axis=1)
    return sum((vx[:, a] * field[:, a] for a in range(vx.shape[1])), np.zeros(len(vx)))


def carroll_charge(state: GeodesicState, gauge: GaugeField, chart: str) -> float:
    """Conserved charge -(vt/t + vx . A(x)); minus the connection one-form on
    the velocity."""
    return -(state.vtb + dot(state.vx.tolist(), gauge.at(state.x, chart).tolist()))


def null_residual(state: GeodesicState, scenario: Scenario, gauge: GaugeField | None = None,
                  chart: str | None = None) -> float:
    """<vx, vx>_gM - (vt/t + vx . A)^2; vanishes exactly on null states."""
    chart = chart or scenario.default_chart
    gauge = gauge if gauge is not None else scenario.gauge
    x, vx = state.x[None], state.vx[None]
    a, g = gauge.at(x, chart), scenario.metric.at(x, [state.t], chart)
    with _monitor_overflow():
        omega_v = state.vtb + float(_along(vx, a)[0])
        speed = float(_along(vx, g)[0])
    return speed - square(omega_v, "vt / t + vx . A")


@contextmanager
def _monitor_overflow():
    """Numpy overflow in the monitors' sums, raised as a NumericError."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise NumericError("the fiber velocity, base speed or charge of a sample overflows the float range") from None


# ---------------------------------------------------------------------------
# null shooting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullShootSpec:
    """Initial data for a null geodesic: base point, unit direction, charge.

    ``q`` is the signed conserved charge (the fiber exponent of a trivial
    connection has the sign -sign(q)); ``eps`` flips the spatial direction.
    """

    x0: np.ndarray
    u: np.ndarray
    q: float
    t0: float
    eps: int = +1
    chart: str | None = None


def unit_direction(scenario: Scenario, x: np.ndarray, u: np.ndarray, t: float,
                   chart: str | None = None) -> np.ndarray:
    """Normalize a base direction to unit length in g_M(x, t)."""
    chart = chart or scenario.default_chart
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    _initial_chart(scenario, chart, x)
    norm = _norm(scenario, x, u, t, chart)
    if norm == 0.0:
        raise ContractViolation("cannot normalize a zero direction")
    return u / norm


def _norm(scenario: Scenario, x: np.ndarray, u: np.ndarray, t: float, chart: str) -> float:
    """The length of the base direction u in g_M(x, t)."""
    if u.size != x.size:
        raise ContractViolation(f"direction {u.tolist()} has {u.size} components, the base point has {x.size}")
    us = u.tolist()
    return math.sqrt(dot([dot(us, column) for column in scenario.metric.at(x, t, chart).T.tolist()], us))


def shoot_null(spec: NullShootSpec, scenario: Scenario, gauge: GaugeField | None = None) -> GeodesicState:
    """Build the null initial state: vx = eps |q| u, vt = -t0 (q + vx . A).

    The returned state satisfies the null condition and carries charge q by
    construction; q = 0 gives the frozen state.
    """
    chart = spec.chart or scenario.default_chart
    gauge = gauge if gauge is not None else scenario.gauge
    x0 = np.asarray(spec.x0, dtype=float)
    t0, q = float(spec.t0), float(spec.q)
    if not (math.isfinite(t0) and t0 != 0.0 and math.isfinite(q)):
        raise DomainError(f"t0 must be finite and nonzero, and q finite, got t0 = {t0}, q = {q}")
    if spec.eps not in (+1, -1):
        raise ContractViolation("eps must be +1 or -1")
    if q == 0.0:
        return GeodesicState(x0, t0, np.zeros(x0.size), 0.0)
    u = np.asarray(spec.u, dtype=float)
    norm = _norm(scenario, x0, u, t0, chart)
    if abs(norm - 1.0) > 1e-10:
        raise ContractViolation(f"direction is not unit in g_M (|u| = {norm:.12f})")
    vx = spec.eps * abs(q) * u
    a = gauge.at(x0, chart)
    vt = -t0 * (q + dot(vx.tolist(), a.tolist()))
    return GeodesicState(x0, t0, vx, vt)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _gamma_provider(kk: KKMetric, chart: str,
                    cfg: IntegratorConfig) -> tuple[str, Callable[[list[float], list[float]], list[float]]]:
    """The symbol route that runs, "closed" or "numeric", and -Gamma^a(v, v)
    as a function of the raw position (x..., t) and a velocity v, float lists.
    The closed form runs where it is validated against the oracle, a gauge
    field known to vanish, unless ``cfg.christoffel`` is "numeric"; the
    oracle runs everywhere else. Both give the acceleration ``along`` v."""
    if cfg.christoffel not in ("closed", "numeric"):
        raise ContractViolation(f"unknown christoffel provider {cfg.christoffel!r}")
    if cfg.christoffel == "closed" and kk.gauge.is_zero:
        return "closed", lambda raw, v: christoffel_closed(kk, raw, chart=chart, along=v)
    # the fiber guard owns the t -> 0 boundary, so no conditioning gate here;
    # the stencil's sign guard refuses a fiber coordinate near zero
    return "numeric", lambda raw, v: christoffel_numeric(kk, raw, cond_limit=None, chart=chart, along=v)


def printed_spatial_acceleration(
    state: GeodesicState,
    scenario: Scenario,
    gauge: GaugeField | None = None,
    chart: str | None = None,
) -> np.ndarray:
    """Transcription of the first-published spatial equation, kept as a
    secondary right-hand side.

    Built from the base symbols, the gauge field and its curvature instead
    of the assembled-metric symbols. For a vanishing gauge field it agrees
    with the generic route; with a gauge field its disagreement with the
    finite-difference oracle is reported by the tests, never asserted away.
    Assumes a fiber-independent base metric.
    """
    chart = chart or scenario.default_chart
    gauge = gauge if gauge is not None else scenario.gauge
    if scenario.metric.time_dependent:
        raise ContractViolation("reference accelerations assume a fiber-independent base metric")
    p = Point(state.x, state.t, chart)
    kk = scenario.kk(-1, gauge)
    base = base_symbols(kk, p.x.tolist(), p.t, chart)
    gminv = base_inverse(kk, p.x, p.t, chart)
    a = gauge.at(state.x, chart)
    f = curvature(gauge, state.x, chart)
    vx = state.vx
    a_v = dot(a.tolist(), vx.tolist())
    omega_v = state.vt / state.t + a_v
    gf_v = gminv @ f @ vx  # g^{ab} F_bc x'^c

    d2x = -np.einsum("abc,b,c->a", base, vx, vx)
    d2x -= omega_v * gf_v
    # published quadratic force; the F_cd x'^c x'^d piece vanishes identically
    d2x -= a_v * gf_v
    return d2x


def printed_temporal_acceleration(
    state: GeodesicState,
    acc_x: np.ndarray,
    gauge: GaugeField,
    chart: str,
) -> float:
    """Second-order fiber equation evaluated on a given spatial acceleration:

        t'' = -t ( (1/2) x' . (dA + dA^T) . x' + A . x'' ) + t'^2 / t
    """
    jac_a, vx = gauge.jacobian(state.x, chart), state.vx.tolist()
    sym_v = dot([dot(vx, row) for row in (jac_a + jac_a.T).tolist()], vx)  # (x' S) . x' as ``_norm`` sums, S = S^T
    force = 0.5 * sym_v + dot(gauge.at(state.x, chart).tolist(), np.asarray(acc_x, dtype=float).tolist())
    return -state.t * force + state.vt**2 / state.t


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # hashed by identity: ``_step_kernel`` caches per tableau
class _Tableau:
    """An explicit Runge-Kutta method as the arithmetic of its steps, per
    component: y + (h / div) * (start + w_0 k_0 + w_1 k_1 + ...), added left
    to right, for each (div, weights) row; ``_step_kernel`` unrolls it into
    one generated step per flow and dimension. A start of 0.0 turns a -0.0 sum into
    0.0; -0.0 starts from the first term as it is. A zero weight is skipped;
    after a start of 0.0 its term adds nothing, and a non-finite slope it
    would turn into NaN spoils the step anyway.

    A method with an error row is first same as last: its solution is its
    last stage point, whose slope the error row weighs last and the next step
    takes as its first."""

    stages: tuple  # the rows of stages 1, 2, ...; stage 0 is at y
    solution: tuple  # the propagated solution
    error: tuple | None  # the error estimate h * (e_0 k_0 + ...), if any
    start: float


# Tsitouras 5(4), Comput. Math. Appl. 62 (2011) 770-775: the fifth-order
# solution is propagated and is the seventh stage point; the error row is b - b^
_TSITOURAS54 = _Tableau(
    stages=((1.0, (0.161,)),
            (1.0, (-0.008480655492356989, 0.335480655492357)),
            (1.0, (2.897153057105493, -6.359448489975075, 4.3622954328695815)),
            (1.0, (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525)),
            (1.0, (5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401,
                   -0.028269050394068383))),
    solution=(1.0, (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081,
                    2.324710524099774)),
    error=(1.0, (0.001780011052226, 0.000816434459657, -0.007880878010262, 0.144711007173263,
                 -0.582357165452555, 0.458082105929187, -1 / 66)),
    start=0.0,
)
# classical RK4: y + (h / 2) k1, y + (h / 2) k2, y + h k3, then y + (h / 6) (k1 + 2 k2 + 2 k3 + k4)
_RK4 = _Tableau(stages=((2.0, (1.0,)), (2.0, (0.0, 1.0)), (1.0, (0.0, 0.0, 1.0))),
                solution=(6.0, (1.0, 2.0, 2.0, 1.0)), error=None, start=-0.0)


def _rms(values: list[float]) -> float:
    """The root mean square of ``values``, as ``_rms_text`` writes it."""
    return _rms_kernel(len(values))(values)


@cache
def _rms_kernel(m: int) -> Callable[[list[float]], float]:
    return run_generated(["def kernel(v):", "    return " + _rms_text([f"v[{j}]" for j in range(m)])],
                         sqrt=math.sqrt)["kernel"]


def _rms_text(names: list[str]) -> str:
    """The root mean square of the floats ``names`` as code: their squares summed from 0.0 in index order."""
    return f"sqrt((0.0{''.join(f' + {v} * {v}' for v in names)}) / {len(names)}.0)"


@cache
def _step_kernel(tableau: _Tableau, n: int, full: bool) -> Callable:
    """The stepping code of ``tableau`` on n base dimensions, generated once: ``kernel(f, sign)`` gives the
    slope at a state, ``slope(y)``, and one step from y whose slope is k0, ``step(y, k0, h, tol)``: the
    propagated state, its slope (None without an error row) and the RMS of the error estimate, each component
    over tol + tol * max(|y|, |y_new|); without an error row 0.0, or NaN for a state that fails the stage guard.
    Every row is unrolled per component as y_j + h_r * (start + w_0 k0_j + ...), h_r = h / div once per row,
    with the tableau's weights written by ``repr``; the error row is taken over a zero state, and the squares
    of its scaled components are summed by ``_rms_text``, as ``_rms`` sums them.

    Each stage's slope is written inline. Its guard: a point with a non-finite component has a NaN slope. On
    the full flow (``full``), y = (x, u, vx, w) of m = 2n + 2 floats, so does a point whose |t| = e^u is past
    the float range; t = sign e^u, a frozen point (zero velocity) has the slope (vx, w, 0...) and any other
    (vx, w, acc_x, acc_t / t - w^2) from one call acc = f([x..., t], [vx..., t w]) of the acceleration f. On
    the reduced flow, y of m = 2n floats, the slope is one call f(y) of its right-hand side f."""
    m = 2 * n + 2 if full else 2 * n
    comps = lambda name: ", ".join(f"{name}{j}" for j in range(m))

    def guard(point: list[str]) -> str:
        return " and ".join([f"{point[n]} <= {_LOG_MAX!r}"] * full + [f"isfinite({p})" for p in point])

    def stage(r: int, point: list[str]) -> list[str]:
        # the slope k{r}_j at the stage point, a list of names
        k, vel, w = [f"k{r}_{j}" for j in range(m)], point[n + 1:], point[-1]
        body = [f"{', '.join(k[:n + 1])} = {', '.join(vel)}", f"if {' or '.join(vel)}:",
                f"    t = sign * exp({point[n]})",
                f"    {', '.join(k[n + 1:])}, = f([{', '.join(point[:n])}, t], [{', '.join(vel[:n])}, t * {w}])",
                f"    {k[-1]} = {k[-1]} / t - {w} * {w}", "else:", f"    {' = '.join(k[n + 1:])} = 0.0"] \
            if full else [f"{', '.join(k)}, = f([{', '.join(point)}])"]
        return [f"    if {guard(point)}:", *(f"        {line}" for line in body), "    else:", f"        {' = '.join(k)} = nan"]

    slope = ["def slope(y):", f"    {comps('y')}, = y", *stage(0, [f"y{j}" for j in range(m)]),
             f"    return [{comps('k0_')}]"]
    lines = ["def step(y, k0, h, tol):", f"    {comps('y')}, = y", f"    {comps('k0_')}, = k0"]

    def combine(r: int, row: tuple, base: str) -> list[str]:
        # emits h_r = h / div; returns row r's sum for each component j of base.format(j)
        lines.append(f"    h{r} = h / {row[0]!r}")
        terms = [(i, w) for i, w in enumerate(row[1]) if w]
        return [f"{base.format(j)} + h{r} * ({tableau.start!r}" + "".join(f" + {w!r} * k{i}_{j}" for i, w in terms)
                + ")" for j in range(m)]

    for r, row in enumerate(tableau.stages, 1):
        lines += [f"    p{j} = {value}" for j, value in enumerate(combine(r, row, "y{}"))]
        lines += stage(r, [f"p{j}" for j in range(m)])
    r, solution = len(tableau.stages) + 1, [f"n{j}" for j in range(m)]
    lines += [f"    n{j} = {value}" for j, value in enumerate(combine(r, tableau.solution, "y{}"))]
    lines.append(f"    n = [{comps('n')}]")
    names = dict(isfinite=math.isfinite, nan=math.nan, **({"exp": math.exp} if full else {}))
    if tableau.error is None:
        lines.append(f"    return n, None, 0.0 if {guard(solution)} else nan")
    else:
        lines += stage(r, solution)
        lines += [f"    e{j} = ({e}) / (tol + tol * max(abs(y{j}), abs(n{j})))"
                  for j, e in enumerate(combine(r + 1, tableau.error, "0.0"))]
        lines.append(f"    return n, [{comps(f'k{r}_')}], {_rms_text([f'e{j}' for j in range(m)])}")
        names.update(sqrt=math.sqrt, abs=abs, max=max)
    body = ["    " + line for line in slope + lines]
    return run_generated(["def kernel(f, sign):", *body, "    return slope, step"], **names)["kernel"]


def _first_step(slope, y: list[float], k0: list[float], tol: float, max_step: float) -> float:
    """The starting step of Hairer, Norsett & Wanner (Solving ODEs I, 2nd
    ed., 1993, II.4) for an error estimate of order 4, capped at
    ``max_step``: one probe slope at y + h0 k0 gauges the second derivative.
    The error scale is tol + tol * |y|. Whatever the slopes are, the step is
    finite and at least min(``MIN_STEP``, ``max_step``), so that a
    non-finite slope ends the first step as ``non_finite``."""
    scale = [tol + tol * abs(v) for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([f / s for f, s in zip(k0, scale)])
    h0 = 0.01 * d0 / d1 if d0 >= 1e-5 and 1e-5 <= d1 < math.inf else 1e-6
    probe = slope([v + h0 * f for v, f in zip(y, k0)])
    d2 = _rms([(g - f) / s for g, f, s in zip(probe, k0, scale)]) / h0
    # a NaN compares false: it falls back to the small step
    d = max(d1, d2)
    h1 = (0.01 / d) ** 0.2 if 1e-15 < d < math.inf else max(1e-6, 1e-3 * h0)
    return min(max(min(100.0 * h0, h1), MIN_STEP), max_step)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _drive(
    f: Callable[..., list[float]],
    sign: float | None,
    y0: np.ndarray,
    span: float,
    cfg: IntegratorConfig,
    guard: Callable[[list[float]], str | None],
) -> tuple[list[float], list[list[float]], list[dict]]:
    """Step the full flow from y0 = (x, u, vx, w), t = sign e^u, ``f`` its
    acceleration, or for ``sign`` None the reduced flow y' = f(y), from
    parameter 0 towards ``span``; returns the sample parameters, the sampled
    states and the event records.

    ``cfg.method`` "rk45" takes Tsitouras 5(4) steps under error control,
    six slopes an attempt: the slope at an accepted state starts the next
    step, and a rejected step keeps the slope at y. Its first step is
    ``_first_step``'s, at the cost of one probe call; a zero span calls
    nothing. "rk4" is the same loop without error control: round(span /
    rk4_step) steps of fixed size and four calls each, the last step not
    clamped to ``span``. States are lists of Python floats, and the slope and
    the step are the code that ``_step_kernel`` generates for the tableau,
    the flow and its dimension: it takes the stage points and solutions term
    by term in the order of the ``_Tableau``, which gives every float that
    the same sums over numpy arrays give, and each stage's slope inline.
    ``guard(y)`` names the reason an accepted state ends the run (that state
    is kept), or returns None. A step whose error norm is not finite, which
    is so where a stage point or the result fails the stage guard, ends the
    run as ``non_finite`` and is not kept. The span must be finite and >= 0,
    the fixed step, the step cap ``max_step`` and the tolerance ``tol``
    finite and > 0, ``tol`` at least the float resolution (below it the error
    norm's squares can overflow), and span / rk4_step at most
    ``MAX_STEPS`` for "rk4", else the run is a ContractViolation.
    """
    if cfg.method not in ("rk45", "rk4"):
        raise ContractViolation(f"unknown integrator method {cfg.method!r}")
    if not (math.isfinite(span) and span >= 0.0):
        raise ContractViolation(f"integration span must be finite and >= 0, got {span}")
    for name, value in (("rk4_step", cfg.rk4_step), ("max_step", cfg.max_step), ("tol", cfg.tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ContractViolation(f"{name} must be finite and > 0, got {value}")
    if cfg.tol < sys.float_info.epsilon:
        raise ContractViolation(f"tol must be at least the float resolution {sys.float_info.epsilon:.3g}, got {cfg.tol}")
    adaptive = cfg.method == "rk45"
    if not adaptive and span / cfg.rk4_step > MAX_STEPS:
        raise ContractViolation(f"rk4_step = {cfg.rk4_step} takes more than {MAX_STEPS} steps over the span {span}")
    full = sign is not None
    slope, step = _step_kernel(_TSITOURAS54 if adaptive else _RK4, (y0.size - 2 * full) // 2, full)(f, sign)
    lam, y, k = 0.0, y0.tolist(), None
    params, states, events = [lam], [y], []
    h = cfg.rk4_step
    if adaptive and span > 0.0:
        k = slope(y)
        h = _first_step(slope, y, k, cfg.tol, cfg.max_step)
    for _ in range(MAX_STEPS if adaptive else int(round(span / h))):
        if adaptive:
            if lam >= span:
                break
            h = min(h, span - lam)
        if k is None:
            k = slope(y)
        y_new, k_new, err_norm = step(y, k, h, cfg.tol)
        if not math.isfinite(err_norm):
            events.append({"kind": "non_finite", "lambda": lam + h})
            break
        if err_norm <= 1.0:
            lam, y, k = lam + h, y_new, k_new
            params.append(lam)
            states.append(y)
            reason = guard(y)
            if reason is not None:
                events.append({"kind": reason, "lambda": lam})
                break
        if adaptive:
            factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
            h = min(h * min(5.0, max(0.2, factor)), cfg.max_step)
            if h < MIN_STEP:
                events.append({"kind": "step_underflow", "lambda": lam})
                break
    else:
        # the step budget ran out (a fixed-step run simply ends here)
        if adaptive and lam < span:
            events.append({"kind": "max_steps", "lambda": lam})
    return params, states, events


def _initial_chart(scenario: Scenario, chart: str, x0: np.ndarray) -> Chart:
    """The chart a flow runs on; it must have the initial base point's dimension and hold it in its hard domain."""
    chart_obj = scenario.atlas.chart(chart)
    if np.size(x0) != chart_obj.dim:
        raise ContractViolation(f"initial base point {np.asarray(x0).tolist()} is not {chart_obj.dim}-dimensional")
    if not chart_obj.inside(x0):
        raise ContractViolation(f"initial base point {np.asarray(x0).tolist()} is outside chart {chart!r}")
    return chart_obj


def integrate(
    state0: GeodesicState,
    scenario: Scenario,
    cfg: IntegratorConfig | None = None,
    gauge: GaugeField | None = None,
    chart: str | None = None,
) -> Trajectory:
    """Integrate the geodesic flow of the sign -1 assembled metric.

    Returns the sampled trajectory with per-sample monitors and the events
    that stopped it early (``t_guard``, ``left_chart`` or a stepping event),
    if any; the partial trajectory is returned in every case. An initial
    fiber coordinate closer to zero than ``FIBER_CUTOFF``, or one that makes
    vt / t overflow, is a DomainError.
    """
    cfg = cfg or IntegratorConfig()
    chart = chart or scenario.default_chart
    gauge = gauge if gauge is not None else scenario.gauge
    kk = scenario.kk(-1, gauge)
    chart_obj = _initial_chart(scenario, chart, state0.x)
    n = state0.dim
    if abs(state0.t) < FIBER_CUTOFF:
        raise DomainError(f"fiber coordinate too close to zero: t = {state0.t:.3e}")
    vtb = state0.vtb
    sign, u0 = math.copysign(1.0, state0.t), math.log(abs(state0.t))

    def guard(y: list[float]) -> str | None:
        if y[n] < u0 + math.log(T_GUARD_FACTOR):
            return "t_guard"
        return None if chart_obj.inside(y[:n]) else "left_chart"

    route, accel = _gamma_provider(kk, chart, cfg)
    y0 = np.concatenate([state0.x, [u0], state0.vx, [vtb]])
    lams, ys, events = _drive(accel, sign, y0, cfg.lambda_max, cfg, guard)
    arr = np.array(ys)
    xs, vxs, ws = arr[:, :n], arr[:, n + 1 : 2 * n + 1], arr[:, 2 * n + 1]
    ts = np.array([state0.t] + [sign * math.exp(u) for u in arr[1:, n].tolist()])  # e^log|t0| may not be t0

    # one stacked read of g_M and one of A feed all three monitors; the
    # square is Python's, whose libm pow can differ from numpy's x * x
    g, a = scenario.metric.at(xs, ts, chart), gauge.at(xs, chart)
    with _monitor_overflow():
        vts = np.concatenate([[state0.vt], ts[1:] * ws[1:]])
        speeds = _along(vxs, g)
        omega = ws + _along(vxs, a)
    nulls = speeds - np.array([square(w, "vt / t + vx . A") for w in omega.tolist()])

    return Trajectory(
        lam=np.array(lams), x=xs, t=ts, vx=vxs, vt=vts,
        charge=-omega, null_residual=nulls, base_speed2=speeds, events=events,
        meta={"scenario": scenario.name, "chart": chart, "method": cfg.method,
              "christoffel": route, "tol": cfg.tol},
    )


# ---------------------------------------------------------------------------
# the weak-gauge-field reduction
# ---------------------------------------------------------------------------

@dataclass
class BaseTrajectory:
    u: np.ndarray
    x: np.ndarray
    vx: np.ndarray
    speed2: np.ndarray
    events: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.u.size


def integrate_small_gauge(
    x0: np.ndarray,
    v0: np.ndarray,
    scenario: Scenario,
    sign_q: int,
    cfg: IntegratorConfig | None = None,
    curvature_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    chart: str | None = None,
) -> BaseTrajectory:
    """Base-only reduction in log-time u for a weak gauge field:

        d2x/du2 + Gamma_base(dx/du, dx/du) = sign_q * g_M^{-1} F dx/du.

    ``v0`` must be unit in g_M (the constraint fixes the speed; in log-time
    it is 1). The curvature of the scenario's gauge field enters directly;
    pass ``curvature_fn`` to bypass it, e.g. for a constant synthetic field
    strength. Steps with ``cfg.method`` from u = 0 to u = ``cfg.lambda_max``,
    the span in log-time; the run ends early with an event record (its ``lambda``
    is the log-time u) on ``left_chart``, ``non_finite``, ``step_underflow``
    or ``max_steps``.
    """
    cfg = cfg or IntegratorConfig()
    chart = chart or scenario.default_chart
    if sign_q not in (+1, -1):
        raise ContractViolation("sign_q must be +1 or -1")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    chart_obj = _initial_chart(scenario, chart, x0)
    speed = _norm(scenario, x0, v0, 1.0, chart)
    if abs(speed - 1.0) > 1e-10:
        raise ContractViolation(f"initial base speed must be 1 in g_M (got {speed:.12f})")
    if scenario.metric.time_dependent:
        raise ContractViolation("the reduction assumes a fiber-independent base metric")

    if curvature_fn is None:
        curvature_fn = lambda x: curvature(scenario.gauge, x, chart)

    kk = scenario.kk(-1)
    n = x0.size

    def rhs(y: list[float]) -> list[float]:
        x, v = np.array(y[:n]), y[n:]
        base = base_symbols(kk, y[:n], 1.0, chart)
        gminv = base_inverse(kk, x, 1.0, chart)
        f = np.asarray(curvature_fn(x), dtype=float)
        va = np.array(v)
        return v + (-np.einsum("abc,b,c->a", base, va, va) + sign_q * (gminv @ f @ va)).tolist()

    guard = lambda y: None if chart_obj.inside(y[:n]) else "left_chart"
    with np.errstate(all="ignore"):  # a non-finite slope ends the run as an event, with no numpy warning
        us, ys, events = _drive(rhs, None, np.concatenate([x0, v0]), cfg.lambda_max, cfg, guard)
    arr = np.array(ys)
    xs, vs = arr[:, :n], arr[:, n:]
    return BaseTrajectory(
        u=np.array(us), x=xs, vx=vs, speed2=_along(vs, scenario.metric.at(xs, np.ones(len(xs)), chart)), events=events,
        meta={"scenario": scenario.name, "chart": chart, "sign_q": sign_q},
    )

