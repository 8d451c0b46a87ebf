"""Section-shifted linearization of fiber bundles over a one-dimensional base.

Given trivializations with (possibly nonlinear) transition maps
``psi_ij(m, r_j) -> r_i`` and a global section, shifting each trivialization
by the section makes every transition fix the fiber origin; the first-order
fiber derivative at the origin is then a line-bundle cocycle. It is taken
exactly where the atlas registers the transition's slope in the fiber (the
built-in synthetic atlas and atlas files do) and by a central difference with
one Richardson pass everywhere else; the difference stays the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import _fd
from .errors import CarrollError, ConstructionError, NumericError
from .expressions import SectionProxy, compile_expression, ini_keys, ini_value, parse_pair, read_ini, unwrap

Transition = Callable[[float, float], float]
Section = Callable[[float], float]

SECTION_TOL = 1e-10  # largest section gap on an overlap that shift_transitions accepts
COEFFICIENT_CUTOFF = 1e-10  # smallest |c_ij| that linearize takes for a fiber diffeomorphism


@dataclass(frozen=True)
class OverlapRecord:
    """Sampled overlap of two charts; sample arrays are aligned pointwise,
    one per chart coordinate convention."""

    charts: tuple[str, str]
    samples: Mapping[str, np.ndarray]

    def points(self, chart: str) -> np.ndarray:
        return np.asarray(self.samples[chart], dtype=float)


@dataclass(frozen=True)
class TripleRecord:
    charts: tuple[str, str, str]
    samples: Mapping[str, np.ndarray]


@dataclass
class TransitionAtlas:
    """Charts, ordered transitions psi[(i, j)](m_j, r_j) -> r_i, and sections;
    ``slopes``, keyed like psi and optional, give d psi_ij / dr at (m_j, r_j)."""

    charts: list[str]
    psi: dict[tuple[str, str], Transition]
    sections: dict[str, Section]
    overlaps: list[OverlapRecord]
    triples: list[TripleRecord] = field(default_factory=list)
    slopes: dict[tuple[str, str], Transition] = field(default_factory=dict)

    def transition(self, i: str, j: str) -> Transition:
        try:
            return self.psi[(i, j)]
        except KeyError:
            raise ConstructionError(f"atlas has no transition {i} <- {j}") from None


def section_consistency(atlas: TransitionAtlas) -> tuple[float, tuple | None]:
    """Worst |s_i(m) - psi_ij(m, s_j(m))| over all overlap samples.

    Returns (worst, offender) where offender is (i, j, m) of the first
    worst sample, or None when every gap is zero. A NaN gap is the worst.
    """
    gaps, where = [], []
    for rec in atlas.overlaps:
        i, j = rec.charts
        psi = atlas.transition(i, j)
        s_i, s_j = atlas.sections[i], atlas.sections[j]
        for a, b in zip(rec.points(i), rec.points(j)):
            gaps.append(abs(s_i(float(a)) - psi(float(b), s_j(float(b)))))
            where.append((i, j, float(b)))
    worst = float(np.max(gaps, initial=0.0))
    return worst, (where[int(np.argmax(gaps))] if worst != 0.0 else None)


def shift_transitions(atlas: TransitionAtlas) -> TransitionAtlas:
    """Shift every transition by the section: the result fixes the fiber origin.

    psi~_ij(m, r) = psi_ij(m, r + s_j(m)) - s_i(m), evaluated with the base
    point expressed in each chart's own coordinates where needed; a slope
    moves with it, to (m, r) -> slope(m, r + s_j(m)). The sections must agree
    to ``SECTION_TOL`` on every overlap.
    """
    atlas = replace(atlas, sections={c: _OncePerM(s).__getitem__ for c, s in atlas.sections.items()})
    worst, offender = section_consistency(atlas)
    if not worst <= SECTION_TOL:
        i, j, m = offender
        if worst > SECTION_TOL:
            raise ConstructionError(f"section is inconsistent on overlap ({i}, {j}) at m = {m:.6g}: gap {worst:.3e}")
        raise NumericError(f"transition {i} <- {j} or its sections are not finite at m = {m:.6g}")

    # The shifted map needs s_i at the image base point. Overlap records store
    # aligned coordinates, so m_j moves by the i - j offset of its nearest sample
    # (first record, then first index, as argmin picks): every m that a record
    # lists is resolved here, any other point by a scan. The section terms depend
    # only on m, so the next stencil point reuses the last m's (never a zero's:
    # -0.0 == 0.0).
    def make_shifted(i: str, j: str) -> Transition:
        psi = atlas.transition(i, j)
        s_i, s_j = atlas.sections[i], atlas.sections[j]
        pairs = [(rec.points(j), rec.points(i)) for rec in atlas.overlaps if set(rec.charts) == {i, j}]
        listed = [np.asarray(rec.samples[j], dtype=float) for rec in (*atlas.overlaps, *atlas.triples) if j in rec.samples]
        offsets = _nearest_offsets(pairs, np.concatenate([np.empty(0), *listed]))
        memo = (None, 0.0, 0.0)

        def to_i(m_j: float) -> float:
            if m_j in offsets:
                return m_j + offsets[m_j]
            best = m_j
            gap = float("inf")
            for mj, mi in pairs:
                k = int(np.argmin(np.abs(mj - m_j)))
                if abs(mj[k] - m_j) < gap:
                    gap = abs(mj[k] - m_j)
                    best = m_j + (mi[k] - mj[k])
            return best

        def shifted(m: float, r: float) -> float:
            nonlocal memo
            last, sj, si = memo
            if last != m or m == 0.0:
                last, sj, si = memo = (m, s_j(m), s_i(to_i(m)))
            return psi(m, r + sj) - si

        return shifted

    new_psi = {key: make_shifted(*key) for key in atlas.psi}
    new_slopes = {(i, j): lambda m, r, slope=slope, s_j=atlas.sections[j]: slope(m, r + s_j(m))
                  for (i, j), slope in atlas.slopes.items()}
    zero = lambda m: 0.0
    return replace(atlas, psi=new_psi, slopes=new_slopes, sections={c: zero for c in atlas.charts})


class _OncePerM(dict):
    """A section's values by m, each computed on its first lookup; a zero's
    (-0.0 == 0.0, but a section may tell them apart) and a NaN's on every one."""

    def __init__(self, section: Section):
        super().__init__()
        self.section = section

    def __missing__(self, m: float) -> float:
        value = self.section(m)
        if m != 0.0 and m == m:
            self[m] = value
        return value


def _nearest_offsets(pairs: list[tuple[np.ndarray, np.ndarray]], ms: np.ndarray) -> dict[float, float]:
    """m_i - m_j at the sample m_j nearest to each m of ``ms``, as the shift's scan
    picks it: the first index of the smallest |m_j - m| in each record, then the
    first record with the smallest gap, which is the first of the records'
    samples laid end to end.

    Their distinct values are bisected; when the two neighbours of m tie, the
    first of either wins. An m whose gap rounds to the same value at a second
    distinct sample on one side, or a non-finite m, is left to the scan. When
    a record is empty or not finite, only the exact samples are resolved, by
    the first record and index that hold them.
    """
    samples = np.concatenate([np.empty(0), *(mj for mj, _ in pairs)])
    if not (all(mj.size for mj, _ in pairs) and np.isfinite(samples).all()):
        offsets: dict[float, float] = {}
        for mj, mi in pairs:
            for v, offset in zip(mj.tolist(), (mi - mj).tolist()):
                offsets.setdefault(v, offset)
        return offsets
    shifts = np.concatenate([np.empty(0), *(mi - mj for mj, mi in pairs)])
    values, first = np.unique(samples, return_index=True)
    # two infinite sentinels at each end, so every m has two neighbours on either side
    values = np.concatenate(([-np.inf, -np.inf], values, [np.inf, np.inf]))
    first = np.concatenate(([0, 0], first, [0, 0]))
    ms = np.unique(ms[np.isfinite(ms)])
    right = np.searchsorted(values, ms)
    gap_left, gap_right = np.abs(values[right - 1] - ms), np.abs(values[right] - ms)
    gap = np.minimum(gap_left, gap_right)
    k = np.minimum(np.where(gap_left == gap, first[right - 1], samples.size), np.where(gap_right == gap, first[right], samples.size))
    tied = (np.abs(values[right - 2] - ms) == gap) | (np.abs(values[right + 1] - ms) == gap)
    keep = (gap < np.inf) & ~tied
    return dict(zip(ms[keep].tolist(), shifts[k[keep]].tolist()))


def origin_residual(shifted: TransitionAtlas) -> float:
    """Max |psi~_ij(m, 0)| over all overlap samples; 0 after a valid shift."""
    gaps = []
    for rec in shifted.overlaps:
        psi = shifted.transition(*rec.charts)
        gaps.extend(abs(psi(float(m), 0.0)) for m in rec.points(rec.charts[1]))
    return float(np.max(gaps, initial=0.0))


@dataclass(frozen=True)
class CocycleSample:
    """Sampled coefficients along one overlap component."""

    charts: tuple[str, str]
    m: np.ndarray
    c: np.ndarray


@dataclass
class LinearizedCocycle:
    """First-order fiber coefficients c_ij(m) with sampled residual summary."""

    coefficients: dict[tuple[str, str], Callable[[float], float]]
    pair_residual: float
    triple_residual: float
    sampled: list[CocycleSample]

    def value(self, i: str, j: str, m: float) -> float:
        return self.coefficients[(i, j)](m)


def linearize(shifted: TransitionAtlas) -> LinearizedCocycle:
    """Extract c_ij(m) = d/dr psi~_ij(m, 0) and check the cocycle closure.

    Each coefficient is the registered slope at r = 0, or the difference of the
    transition (``_fd.fiber_derivatives``) where there is no slope or where it
    fails, is zero or is not finite, so that it ends as the difference ends.
    Raises NumericError when a coefficient is numerically zero (the transition
    fails to be a fiber diffeomorphism at the section) or is not finite.
    """

    def derivatives(key: tuple[str, str], ms: list[float]) -> list[float]:
        slope = shifted.slopes.get(key)
        exact = [_slope_at_section(slope, m) for m in ms] if slope else [None] * len(ms)
        differenced = iter(_fd.fiber_derivatives(shifted.psi[key], [m for m, c in zip(ms, exact) if c is None]).tolist())
        return [next(differenced) if c is None else c for c in exact]

    coeffs = {key: lambda m, key=key: derivatives(key, [m])[0] for key in shifted.psi}
    # a pair record's partner and the triples revisit (transition, m): take each once per call
    known: dict[tuple[str, str], dict[float, float]] = {key: {} for key in shifted.psi}

    def sampled_c(key: tuple[str, str], ms: np.ndarray) -> np.ndarray:
        ms, memo = ms.tolist(), known[key]
        new = [m for m in dict.fromkeys(ms) if m not in memo]
        memo.update(zip(new, derivatives(key, new)))
        return np.array([memo[m] for m in ms])

    sampled: list[CocycleSample] = []
    pair_gaps = []
    for rec in shifted.overlaps:
        i, j = rec.charts
        mi, mj = rec.points(i), rec.points(j)
        c_ij = sampled_c((i, j), mj)
        if not np.all(np.isfinite(c_ij) & (np.abs(c_ij) >= COEFFICIENT_CUTOFF)):
            raise NumericError(f"transition {i} <- {j} degenerates at the section: a coefficient is zero or not finite")
        sampled.append(CocycleSample(charts=(i, j), m=mj.copy(), c=c_ij))
        if (j, i) in coeffs:
            pair_gaps.extend(np.abs(c_ij * sampled_c((j, i), mi) - 1.0))

    triple_gaps = []
    for rec in shifted.triples:
        i, j, k = rec.charts
        mj = np.asarray(rec.samples[j], dtype=float)
        mk = np.asarray(rec.samples[k], dtype=float)
        triple_gaps.extend(np.abs(sampled_c((i, j), mj) * sampled_c((j, k), mk) - sampled_c((i, k), mk)))

    return LinearizedCocycle(
        coefficients=coeffs,
        pair_residual=float(np.max(pair_gaps, initial=0.0)),
        triple_residual=float(np.max(triple_gaps, initial=0.0)),
        sampled=sampled,
    )


def _slope_at_section(slope: Transition, m: float) -> float | None:
    """slope(m, 0), or None where it fails or the coefficient guard would reject it."""
    try:
        c = float(slope(m, 0.0))
    except (ArithmeticError, ValueError, CarrollError):
        return None
    return c if COEFFICIENT_CUTOFF <= abs(c) < math.inf else None


# ---------------------------------------------------------------------------
# built-in and file-based atlases
# ---------------------------------------------------------------------------

def moebius_transition_atlas(samples_per_overlap: int = 32) -> TransitionAtlas:
    """Two-arc circle atlas with fiber flip on one overlap component.

    East angles run in (-2.2, 2.2), west in (pi - 2.2, pi + 2.2); the upper
    overlap is identity, the lower one flips the fiber sign.
    """
    a = 2.2
    upper_e = np.linspace(math.pi - a + 0.01, a - 0.01, samples_per_overlap)
    lower_e = np.linspace(-a + 0.01, -(math.pi - a) - 0.01, samples_per_overlap)
    lower_w = lower_e + 2.0 * math.pi

    # both components keyed by the source-chart angle; east coordinates of the
    # lower overlap are negative, west ones exceed pi
    def psi_east_to_west(m: float, r: float) -> float:
        return r if m > 0.0 else -r

    def psi_west_to_east(m: float, r: float) -> float:
        return r if m < math.pi else -r

    zero = lambda m: 0.0
    return TransitionAtlas(
        charts=["east", "west"],
        psi={("west", "east"): psi_east_to_west, ("east", "west"): psi_west_to_east},
        sections={"east": zero, "west": zero},
        overlaps=[
            OverlapRecord(charts=("west", "east"), samples={"west": upper_e, "east": upper_e}),
            OverlapRecord(charts=("west", "east"), samples={"west": lower_w, "east": lower_e}),
        ],
    )


def synthetic_circle_atlas(samples_per_overlap: int = 32) -> TransitionAtlas:
    """Three-arc circle atlas with nonlinear transitions and an exact cocycle.

    Per-chart fiber diffeomorphisms chi_i(m, .) generate the transitions
    psi_ij = chi_i o chi_j^{-1}, so the nonlinear cocycle closes by
    construction while each psi_ij is genuinely nonlinear in the fiber; their
    slopes in the fiber are registered in closed form.
    """
    width = 2.2
    centers = {"a": 0.0, "b": 2.0 * math.pi / 3.0, "c": 4.0 * math.pi / 3.0}

    def chi(name: str):
        if name == "a":
            amp = lambda m: math.exp(0.3 * math.sin(m))
            stiff = lambda m: 1.0 + 0.5 * math.cos(m) ** 2
        elif name == "b":
            amp = lambda m: math.exp(0.2 * math.cos(m))
            stiff = lambda m: 1.5
        else:
            amp = lambda m: 1.0
            stiff = lambda m: 1.0 + 0.25 * math.sin(2.0 * m) ** 2

        def forward(m: float, rho: float) -> float:
            k = stiff(m)
            return amp(m) * math.sinh(k * rho) / k

        def inverse(m: float, r: float) -> float:
            k = stiff(m)
            return math.asinh(k * r / amp(m)) / k

        def forward_slope(m: float, rho: float) -> float:
            return amp(m) * math.cosh(stiff(m) * rho)

        def inverse_slope(m: float, r: float) -> float:
            return 1.0 / math.sqrt(amp(m) ** 2 + (stiff(m) * r) ** 2)

        return forward, inverse, forward_slope, inverse_slope

    maps = {name: chi(name) for name in centers}

    def make_psi(i: str, j: str) -> Transition:
        fwd_i, inv_j = maps[i][0], maps[j][1]
        return lambda m, r: fwd_i(m, inv_j(m, r))

    def make_slope(i: str, j: str) -> Transition:
        inv_j, fwd_slope_i, inv_slope_j = maps[j][1], maps[i][2], maps[j][3]
        return lambda m, r: fwd_slope_i(m, inv_j(m, r)) * inv_slope_j(m, r)

    names = list(centers)
    psi = {(i, j): make_psi(i, j) for i in names for j in names if i != j}

    # the section rho = 0.1 sin(m) in the shared fiber coordinate
    def make_section(i: str) -> Section:
        fwd_i = maps[i][0]
        return lambda m: fwd_i(m, 0.1 * math.sin(m))

    sections = {name: make_section(name) for name in names}

    overlaps = []
    for i, j in [("a", "b"), ("b", "c"), ("a", "c")]:
        mid = 0.5 * (centers[i] + centers[j])
        ms = np.linspace(mid - 0.4, mid + 0.4, samples_per_overlap)
        overlaps.append(OverlapRecord(charts=(i, j), samples={i: ms, j: ms}))
        overlaps.append(OverlapRecord(charts=(j, i), samples={i: ms, j: ms}))

    # every chart center lies inside all three arcs for width > 2 pi / 3
    triples = []
    for i, j, k in [("a", "b", "c")]:
        ms = np.linspace(centers[j] - 0.08, centers[j] + 0.08, samples_per_overlap)
        triples.append(TripleRecord(charts=(i, j, k), samples={i: ms, j: ms, k: ms}))

    return TransitionAtlas(
        charts=names,
        psi=psi,
        sections=sections,
        overlaps=overlaps,
        triples=triples,
        slopes={key: make_slope(*key) for key in psi},
    )


def _charts_and_samples(sec: SectionProxy, count: int, charts: list[str], samples: int) -> tuple[list[str], np.ndarray]:
    """The ``charts`` entry of an [overlap] or [triple], ``count`` distinct
    names from [charts], and ``samples`` points on its ``interval``. An
    overlap may also give the transition ``to_<chart>`` into each chart."""
    names = ini_value(sec, "charts", lambda text: [s.strip() for s in text.split(",")])
    if len(names) != count or len(set(names)) != count:
        raise ConstructionError(f"[{sec.name}] charts must name {count} distinct charts, got {', '.join(names)}")
    for name in names:
        if name not in charts:
            raise ConstructionError(f"[{sec.name}] names chart {name!r}, which [charts] does not define")
    ini_keys(sec, ("charts", "interval", *(f"to_{name}" for name in names if count == 2)))
    return names, np.linspace(*ini_value(sec, "interval", parse_pair), samples)


def load_atlas_file(path: str | Path, samples_per_overlap: int = 32) -> TransitionAtlas:
    """Structured-text atlas: [charts], [overlap NAME] sections, [sections].

    Transitions are expressions in the base variable m and fiber variable r.
    Base coordinates are shared across charts (no wrap-around); wrapped
    atlases are provided as built-ins. Each transition's slope in r is the
    r-component of its forward-mode gradient.
    """
    path = Path(path)
    parser = read_ini(path, "atlas file", ("charts",), ("sections",), named=("overlap", "triple"))
    charts = list(parser["charts"])
    for name in charts:
        ini_value(parser["charts"], name, lambda spec: parse_pair(unwrap(spec, "interval")[1]))

    psi: dict[tuple[str, str], Transition] = {}
    overlaps: list[OverlapRecord] = []
    triples: list[TripleRecord] = []

    # triples last: each checks the transitions that the overlaps define
    for section_name in sorted(parser.sections(), key=lambda name: name.split(" ")[0] == "triple"):
        kind, sec = section_name.split(" ")[0], parser[section_name]
        if kind == "overlap":
            (i, j), ms = _charts_and_samples(sec, 2, charts, samples_per_overlap)
            overlaps.append(OverlapRecord(charts=(i, j), samples={i: ms, j: ms}))
            overlaps.append(OverlapRecord(charts=(j, i), samples={i: ms, j: ms}))
            for key, target in ((f"to_{i}", (i, j)), (f"to_{j}", (j, i))):
                if key in sec:
                    psi[target] = compile_expression(sec[key], ("m", "r"))
        elif kind == "triple":
            (i, j, k), ms = _charts_and_samples(sec, 3, charts, samples_per_overlap)
            for a, b in ((i, j), (j, k), (i, k)):
                if (a, b) not in psi:
                    raise ConstructionError(f"[{section_name}] needs a transition {a} <- {b} from an [overlap]")
            triples.append(TripleRecord(charts=(i, j, k), samples={c: ms for c in (i, j, k)}))

    given = parser["sections"] if "sections" in parser else {}
    ini_keys(given, charts)
    sections = {name: compile_expression(given.get(name, "0"), ("m",)) for name in charts}

    if not psi:
        raise ConstructionError("atlas file defines no transitions")
    slopes = {key: (lambda m, r, dual=fn.value_and_grad: dual(m, r)[1][1]) for key, fn in psi.items()}
    return TransitionAtlas(charts=charts, psi=psi, sections=sections, overlaps=overlaps, triples=triples, slopes=slopes)
