import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrollgeo import _fd
from carrollgeo.cli import main
from carrollgeo.errors import ConstructionError, NumericError
from carrollgeo.linearize import (
    OverlapRecord,
    TransitionAtlas,
    TripleRecord,
    _nearest_offsets,
    linearize,
    load_atlas_file,
    moebius_transition_atlas,
    origin_residual,
    section_consistency,
    shift_transitions,
    synthetic_circle_atlas,
)


def _two_chart(psi_ab, psi_ba, sections=None, ms=None):
    ms = np.linspace(-0.8, 0.8, 16) if ms is None else ms
    zero = lambda m: 0.0
    sections = sections or {"a": zero, "b": zero}
    return TransitionAtlas(
        charts=["a", "b"],
        psi={("a", "b"): psi_ab, ("b", "a"): psi_ba},
        sections=sections,
        overlaps=[
            OverlapRecord(charts=("a", "b"), samples={"a": ms, "b": ms}),
            OverlapRecord(charts=("b", "a"), samples={"a": ms, "b": ms}),
        ],
    )


# -- shifting -----------------------------------------------------------------

def test_shift_linear_zero_section_unchanged():
    atlas = _two_chart(lambda m, r: 2.0 * r, lambda m, r: 0.5 * r)
    shifted = shift_transitions(atlas)
    for m in (-0.5, 0.0, 0.4):
        for r in (-1.0, 0.3, 2.0):
            assert shifted.transition("a", "b")(m, r) == 2.0 * r
    assert origin_residual(shifted) == 0.0


def test_shift_moebius_fixes_origin():
    shifted = shift_transitions(moebius_transition_atlas())
    assert origin_residual(shifted) == 0.0


def test_shift_quadratic_with_zero_section():
    atlas = _two_chart(lambda m, r: r + m * r**2, lambda m, r: (math.sqrt(1.0 + 4.0 * m * r) - 1.0) / (2.0 * m) if m != 0.0 else r)
    shifted = shift_transitions(atlas)
    # zero section: the shifted map equals the original and fixes the origin
    assert shifted.transition("a", "b")(0.3, 0.5) == pytest.approx(0.5 + 0.3 * 0.25)
    assert origin_residual(shifted) < 1e-15


def test_shift_detects_inconsistent_section():
    atlas = _two_chart(
        lambda m, r: 2.0 * r,
        lambda m, r: 0.5 * r,
        sections={"a": lambda m: 1.0, "b": lambda m: 1.0},  # 1 != 2*1
    )
    with pytest.raises(ConstructionError, match="inconsistent"):
        shift_transitions(atlas)


def test_shift_nontrivial_section_fixes_origin():
    # section r_b = sin(m) on chart b maps to 2 sin(m) on chart a
    atlas = _two_chart(
        lambda m, r: 2.0 * r,
        lambda m, r: 0.5 * r,
        sections={"a": lambda m: 2.0 * math.sin(m), "b": lambda m: math.sin(m)},
    )
    shifted = shift_transitions(atlas)
    assert origin_residual(shifted) < 1e-12


# -- first-order coefficients ---------------------------------------------------

def test_moebius_cocycle_values():
    cocycle = linearize(shift_transitions(moebius_transition_atlas()))
    seen = set()
    for sample in cocycle.sampled:
        values = set(np.round(sample.c, 12))
        assert values in ({1.0}, {-1.0})
        seen |= values
    assert seen == {1.0, -1.0}
    assert cocycle.pair_residual == 0.0


def test_quadratic_transition_has_unit_coefficient():
    atlas = _two_chart(
        lambda m, r: r + m * r**2,
        lambda m, r: (math.sqrt(1.0 + 4.0 * m * r) - 1.0) / (2.0 * m) if m != 0.0 else r,
        ms=np.linspace(0.1, 0.8, 12),
    )
    cocycle = linearize(shift_transitions(atlas))
    for sample in cocycle.sampled:
        assert np.max(np.abs(sample.c - 1.0)) < 1e-9


def test_exponential_transition_coefficient():
    # psi(m, r) = e^m r + r^3; the inverse is evaluated by bisection
    def psi_ab(m, r):
        return math.exp(m) * r + r**3

    def psi_ba(m, r):
        lo, hi = -10.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if psi_ab(m, mid) < r:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    atlas = _two_chart(psi_ab, psi_ba, ms=np.linspace(-0.6, 0.6, 9))
    cocycle = linearize(shift_transitions(atlas))
    for sample in cocycle.sampled:
        if sample.charts == ("a", "b"):
            expected = np.exp(sample.m)
            assert np.max(np.abs(sample.c - expected)) < 1e-8
    assert cocycle.pair_residual < 1e-8


def test_degenerate_transition_raises():
    atlas = _two_chart(lambda m, r: r**3, lambda m, r: np.sign(r) * abs(r) ** (1.0 / 3.0))
    with pytest.raises(NumericError, match="degenerates"):
        linearize(shift_transitions(atlas))


def test_non_finite_transition_raises():
    """abs(nan) < 1e-10 is False, and so is a NaN gap > tol: a transition that
    evaluates to NaN must still be a numeric failure, in the section check
    and in the coefficient guard."""
    atlas = _two_chart(lambda m, r: r, lambda m, r: r * math.nan)
    with pytest.raises(NumericError, match="not finite at m = -0.8"):
        shift_transitions(atlas)
    with pytest.raises(NumericError, match="not finite"):
        linearize(atlas)


def test_synthetic_three_chart_cocycle():
    cocycle = linearize(shift_transitions(synthetic_circle_atlas()))
    assert cocycle.pair_residual < 1e-8
    assert cocycle.triple_residual < 1e-8


def test_linear_atlas_linearization_is_exact():
    # for linear transitions c(m) * r reproduces the shifted map for all r
    atlas = _two_chart(lambda m, r: math.exp(m) * r, lambda m, r: math.exp(-m) * r)
    shifted = shift_transitions(atlas)
    cocycle = linearize(shifted)
    for m in (-0.5, 0.2, 0.7):
        c = cocycle.value("a", "b", m)
        for r in (-2.0, 0.1, 1.5):
            assert shifted.transition("a", "b")(m, r) == pytest.approx(c * r, rel=1e-9)


@given(m=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_cocycle_reciprocal_property(m):
    atlas = _two_chart(lambda m_, r: math.exp(m_) * r + 0.1 * r**3,
                       lambda m_, r: None)  # placeholder, replaced below

    def psi_ba(m_, r):
        lo, hi = -20.0, 20.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.exp(m_) * mid + 0.1 * mid**3 < r:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    atlas.psi[("b", "a")] = psi_ba
    cocycle = linearize(shift_transitions(atlas))
    assert cocycle.value("a", "b", m) * cocycle.value("b", "a", m) == pytest.approx(1.0, abs=1e-7)


def test_moebius_flip_transition():
    atlas = moebius_transition_atlas()
    # crossing the flip component: west angle beyond pi sends r to -r
    assert atlas.transition("east", "west")(math.pi + 0.5, 1.0) == -1.0
    assert atlas.transition("east", "west")(1.2, 1.0) == 1.0


# -- atlas files -------------------------------------------------------------------

ATLAS_FILE = """
[charts]
a = interval(-2.2, 2.2)
b = interval(0.9, 5.4)

[overlap right]
charts = a, b
interval = 1.0, 2.1
to_a = exp(sin(m)) * r
to_b = exp(-sin(m)) * r

[sections]
a = 0
b = 0
"""


def test_load_atlas_file(tmp_path):
    path = tmp_path / "atlas.ini"
    path.write_text(ATLAS_FILE)
    atlas = load_atlas_file(path)
    worst, _ = section_consistency(atlas)
    assert worst == 0.0
    cocycle = linearize(shift_transitions(atlas))
    assert cocycle.pair_residual < 1e-8
    for sample in cocycle.sampled:
        if sample.charts == ("a", "b"):
            assert np.max(np.abs(sample.c - np.exp(np.sin(sample.m)))) < 1e-8


def test_atlas_file_requires_transitions(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[charts]\na = interval(0, 1)\n")
    with pytest.raises(ConstructionError):
        load_atlas_file(path)


def test_atlas_file_triple_before_its_overlaps(tmp_path):
    # a [triple] may precede the [overlap] sections that define its transitions
    path = tmp_path / "three.ini"
    path.write_text(
        "[charts]\na = interval(-3, 3)\nb = interval(-3, 3)\nc = interval(-3, 3)\n"
        "[triple abc]\ncharts = a, b, c\ninterval = 0.1, 0.4\n"
        "[overlap ab]\ncharts = a, b\ninterval = 0, 1\nto_a = 2 * r\nto_b = r / 2\n"
        "[overlap bc]\ncharts = b, c\ninterval = 0, 1\nto_b = 3 * r\nto_c = r / 3\n"
        "[overlap ac]\ncharts = a, c\ninterval = 0, 1\nto_a = 6 * r\nto_c = r / 6\n"
    )
    cocycle = linearize(shift_transitions(load_atlas_file(path)))
    assert cocycle.triple_residual < 1e-8


# -- the shifted map against the per-call nearest-sample reference ------------------

EXAMPLE_ATLAS = Path(__file__).resolve().parents[1] / "docs" / "examples" / "atlas_twochart.ini"


def _reference_shift(atlas: TransitionAtlas) -> TransitionAtlas:
    """The shift as first written: nearest sample by argmin and both section
    terms recomputed on every call; a slope is read at r + s_j(m)."""

    def make_shifted(i, j):
        psi = atlas.transition(i, j)
        s_i, s_j = atlas.sections[i], atlas.sections[j]
        pairs = _pairs(atlas, i, j)
        return lambda m, r: psi(m, r + s_j(m)) - s_i(_scan_image(pairs, m))

    def make_slope(i, j):
        slope, s_j = atlas.slopes[(i, j)], atlas.sections[j]
        return lambda m, r: slope(m, r + s_j(m))

    zero = lambda m: 0.0
    return replace(atlas, psi={key: make_shifted(*key) for key in atlas.psi},
                   slopes={key: make_slope(*key) for key in atlas.slopes}, sections={c: zero for c in atlas.charts})


def _pairs(atlas: TransitionAtlas, i: str, j: str) -> list:
    return [(rec.points(j), rec.points(i)) for rec in atlas.overlaps if set(rec.charts) == {i, j}]


def _scan_image(pairs, m_j):
    """m_j moved by the i - j offset of its nearest sample, found by argmin in
    each record (first index), keeping the first record with the smallest gap."""
    best = m_j
    gap = float("inf")
    for mj, mi in pairs:
        k = int(np.argmin(np.abs(mj - m_j)))
        if abs(mj[k] - m_j) < gap:
            gap = abs(mj[k] - m_j)
            best = m_j + (mi[k] - mj[k])
    return best


def _dyadic_atlas() -> TransitionAtlas:
    """Chart a's coordinate is twice chart b's, so the i - j offset differs
    from sample to sample. Samples are dyadic, so a midpoint between two of
    them is an exact tie; b = 0.5 appears twice, and a third record holds it
    once more, each time with an a-side partner a few ulps apart (inside the
    section tolerance) so that picking the wrong one changes the bits."""
    mb = np.array([0.25, 0.5, 0.5, 0.75, 1.0])
    ma = np.array([0.5, 1.0, 1.0 + 2.0**-40, 1.5, 2.0])
    identity = lambda m, r: r
    return TransitionAtlas(
        charts=["a", "b"],
        psi={("a", "b"): identity, ("b", "a"): identity},
        sections={"a": lambda m: 0.5 * m, "b": lambda m: m},
        overlaps=[
            OverlapRecord(charts=("a", "b"), samples={"a": ma, "b": mb}),
            OverlapRecord(charts=("b", "a"), samples={"a": ma, "b": mb}),
            OverlapRecord(charts=("a", "b"), samples={"a": np.array([1.0 + 2.0**-39, 1.25]), "b": np.array([0.5, 0.625])}),
        ],
    )


def _atlases():
    for n in (32, 256):
        yield f"moebius-{n}", moebius_transition_atlas(n)
        yield f"synthetic-{n}", synthetic_circle_atlas(n)
        yield f"file-{n}", load_atlas_file(EXAMPLE_ATLAS, n)
    yield "dyadic", _dyadic_atlas()


def _off_sample_points(atlas: TransitionAtlas, i: str, j: str) -> list[float]:
    points = []
    for rec in atlas.overlaps:
        if set(rec.charts) == {i, j}:
            mj = np.sort(rec.points(j))
            points += (0.5 * (mj[:-1] + mj[1:])).tolist()  # midpoints: exact ties on dyadic samples
            points += np.nextafter(mj, np.inf).tolist() + [float(mj[0]) - 0.3, float(mj[-1]) + 0.3]
    for rec in atlas.triples:
        points += np.asarray(rec.samples[j], dtype=float).tolist()
    return points


def test_shift_matches_reference_bit_for_bit():
    for name, atlas in _atlases():
        fast, slow = shift_transitions(atlas), _reference_shift(atlas)
        got, want = linearize(fast), linearize(slow)
        assert len(got.sampled) == len(want.sampled), name
        for a, b in zip(got.sampled, want.sampled):
            assert a.charts == b.charts and np.array_equal(a.m, b.m), name
            assert np.array_equal(a.c, b.c), (name, a.charts)
        assert got.pair_residual == want.pair_residual, name
        assert got.triple_residual == want.triple_residual, name
        for key in atlas.psi:
            samples = [float(m) for rec in atlas.overlaps if set(rec.charts) == set(key) for m in rec.points(key[1])]
            points = _off_sample_points(atlas, *key)
            # each point twice in a row, then revisited after another point
            for m in points + samples[:8] + points[::-1] + [0.0, -0.0, 0.0]:
                for r in (0.0, 0.3, -1e-6):
                    assert fast.psi[key](m, r) == slow.psi[key](m, r), (name, key, m, r)


def _reference_csv(atlas: TransitionAtlas) -> bytes:
    cocycle = linearize(_reference_shift(atlas))
    lines = ["to, src, m, c"]
    for sample in cocycle.sampled:
        i, j = sample.charts
        lines += [f"{i}, {j}, {float(m)!r}, {float(c)!r}" for m, c in zip(sample.m, sample.c)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "argument, build",
    [
        ("moebius", moebius_transition_atlas),
        ("synthetic", synthetic_circle_atlas),
        (str(EXAMPLE_ATLAS), lambda: load_atlas_file(EXAMPLE_ATLAS)),
    ],
    ids=["moebius", "synthetic", "atlas_file"],
)
def test_cli_linearize_csv_matches_reference(argument, build, tmp_path, capsys):
    out = tmp_path / "cocycle.csv"
    assert main(["linearize", argument, "--out", str(out)]) == 0
    assert out.read_bytes() == _reference_csv(build())


def _per_m_coefficient(psi, m):
    """d/dr psi(m, r) at r = 0 as first written: one Richardson call per m on floats."""
    h = _fd.TRANSITION_REL_STEP
    return _fd.richardson(*(psi(m, r) for r in _fd.offsets(h)), h)


def _counted(calls: list, fns: dict) -> dict:
    return {key: (lambda m, r, key=key, fn=fn: calls.append((key, m)) or fn(m, r)) for key, fn in fns.items()}


def test_each_coefficient_is_evaluated_once_per_call():
    """A pair record's partner and the triples revisit (transition, m) pairs:
    on the synthetic atlas at 32 samples there are 480 lookups of 283
    distinct pairs. Without its slopes each is differenced once, so the
    transitions are called 4 * 283 times. Every sampled value equals a fresh
    evaluation, through ``value`` and through the per-m formula."""
    shifted = replace(shift_transitions(synthetic_circle_atlas(32)), slopes={})
    calls = []
    cocycle = linearize(replace(shifted, psi=_counted(calls, shifted.psi)))
    assert len(calls) == 4 * 283 and len(set(calls)) == 283
    for sample in cocycle.sampled:
        for m, c in zip(sample.m.tolist(), sample.c.tolist()):
            assert c == cocycle.value(*sample.charts, m) == _per_m_coefficient(shifted.psi[sample.charts], m)


def test_each_registered_slope_is_called_once_per_transition_and_m():
    """With its slopes the synthetic atlas takes the same 283 distinct
    coefficients from one slope call each, at r = 0, and never calls a
    transition; ``value`` is the same call."""
    shifted = shift_transitions(synthetic_circle_atlas(32))
    transition_calls, slope_calls = [], []
    cocycle = linearize(replace(shifted, psi=_counted(transition_calls, shifted.psi),
                                slopes=_counted(slope_calls, shifted.slopes)))
    assert len(slope_calls) == len(set(slope_calls)) == 283
    for sample in cocycle.sampled:
        for m, c in zip(sample.m.tolist(), sample.c.tolist()):
            assert c == cocycle.value(*sample.charts, m) == shifted.slopes[sample.charts](m, 0.0)
    assert transition_calls == []


SECTIONS_FILE = """
[charts]
a = interval(-3, 3)
b = interval(-3, 3)

[overlap ab]
charts = a, b
interval = -0.5, 1.5
to_a = exp(m) * sinh(r)
to_b = asinh(exp(-m) * r)

[sections]
a = exp(m) * sinh(0.2 * cos(m))
b = 0.2 * cos(m)
"""


def _file_with_sections(tmp_path: Path) -> TransitionAtlas:
    path = tmp_path / "sections.ini"
    path.write_text(SECTIONS_FILE)
    return load_atlas_file(path)


@pytest.mark.parametrize("build", [
    lambda tmp: synthetic_circle_atlas(32),
    lambda tmp: synthetic_circle_atlas(256),
    lambda tmp: load_atlas_file(EXAMPLE_ATLAS),
    _file_with_sections,
], ids=["synthetic-32", "synthetic-256", "atlas_file", "file-with-sections"])
def test_exact_slopes_agree_with_the_difference(build, tmp_path):
    """Every coefficient that a registered slope gives, on the overlaps and
    the triples, is within 1e-9 of the difference of the same shifted map,
    and the cocycle closes to rounding."""
    atlas = build(tmp_path)
    assert set(atlas.slopes) == set(atlas.psi)
    shifted = shift_transitions(atlas)
    cocycle = linearize(shifted)
    records = [(rec.charts, rec.points(rec.charts[1])) for rec in shifted.overlaps]
    records += [(pair, np.asarray(rec.samples[pair[1]], dtype=float))
                for rec in shifted.triples for pair in ((rec.charts[0], rec.charts[1]), rec.charts[1:], rec.charts[::2])]
    for key, ms in records:
        exact = np.array([cocycle.value(*key, m) for m in ms.tolist()])
        assert np.max(np.abs(exact / _fd.fiber_derivatives(shifted.psi[key], ms.tolist()) - 1.0)) <= 1e-9, key
    assert max(cocycle.pair_residual, cocycle.triple_residual) <= 1e-14


def test_the_file_with_sections_has_its_closed_form_coefficient(tmp_path):
    cocycle = linearize(shift_transitions(_file_with_sections(tmp_path)))
    sample = next(s for s in cocycle.sampled if s.charts == ("a", "b"))
    assert np.max(np.abs(sample.c / (np.exp(sample.m) * np.cosh(0.2 * np.cos(sample.m))) - 1.0)) <= 1e-15


def test_atlases_without_slopes_keep_the_difference_bit_for_bit():
    """moebius and a user-built atlas register no slope: every coefficient is
    the per-m difference of the shifted map, as before slopes existed."""
    user_built = _two_chart(lambda m, r: math.exp(m) * r + r**3, lambda m, r: math.exp(-m) * r)
    for atlas in (moebius_transition_atlas(32), moebius_transition_atlas(256), user_built):
        assert atlas.slopes == {}
        shifted = shift_transitions(atlas)
        cocycle = linearize(shifted)
        for sample in cocycle.sampled:
            for m, c in zip(sample.m.tolist(), sample.c.tolist()):
                assert c == cocycle.value(*sample.charts, m) == _per_m_coefficient(shifted.psi[sample.charts], m)


@pytest.mark.parametrize("bad", [0.0, 1e-11, math.nan, math.inf, ZeroDivisionError])
def test_a_slope_the_coefficient_guard_rejects_is_replaced_by_the_difference(bad):
    """Where a registered slope fails, is zero or is not finite at the
    section, the coefficient is the per-m difference, bit for bit."""

    def slope(m, r):
        if m <= 0.0:
            return math.exp(m)
        if bad is ZeroDivisionError:
            raise ZeroDivisionError("float division by zero")
        return bad

    atlas = _two_chart(lambda m, r: math.exp(m) * r, lambda m, r: math.exp(-m) * r)
    shifted = shift_transitions(replace(atlas, slopes={("a", "b"): slope}))
    cocycle = linearize(shifted)
    sample = next(s for s in cocycle.sampled if s.charts == ("a", "b"))
    for m, c in zip(sample.m.tolist(), sample.c.tolist()):
        assert c == (math.exp(m) if m <= 0.0 else _per_m_coefficient(shifted.psi[("a", "b")], m)), m


def test_a_slope_whose_base_partial_fails_ends_as_the_difference(tmp_path):
    """The generated slope takes the slope of every node that reads m or r, as
    the full gradient does: sqrt(m - 1) has none at m = 1, where the
    transition and its difference in r are fine."""
    path = tmp_path / "edge.ini"
    path.write_text("[charts]\na = interval(0, 3)\nb = interval(0, 3)\n"
                    "[overlap o]\ncharts = a, b\ninterval = 1, 2\nto_a = r + 0 * sqrt(m - 1)\nto_b = r\n")
    shifted = shift_transitions(load_atlas_file(path))
    with pytest.raises(ConstructionError, match="cannot evaluate"):
        shifted.slopes[("a", "b")](1.0, 0.0)
    cocycle = linearize(shifted)
    assert cocycle.value("a", "b", 1.0) == _per_m_coefficient(shifted.psi[("a", "b")], 1.0) == pytest.approx(1.0)
    assert cocycle.pair_residual <= 1e-9


KINKED_FILE = """
[charts]
a = interval(-2, 2)
b = interval(-2, 2)

[overlap o]
charts = a, b
interval = 0, 1
to_a = sqrt(r^2) + 0*m
to_b = r
"""


def test_a_slope_that_fails_at_the_section_ends_as_the_difference(tmp_path, capsys):
    """d/dr sqrt(r^2) divides by zero at r = 0; the difference reads the kink
    as a zero coefficient, and so linearize still reports a degenerate
    transition (exit 3), not an expression it cannot evaluate (exit 2)."""
    path = tmp_path / "kinked.ini"
    path.write_text(KINKED_FILE)
    shifted = shift_transitions(load_atlas_file(path))
    with pytest.raises(ConstructionError, match="cannot evaluate"):
        shifted.slopes[("a", "b")](0.5, 0.0)
    with pytest.raises(NumericError, match="degenerates"):
        linearize(shifted)
    assert main(["linearize", str(path)]) == 3
    assert capsys.readouterr().err.strip() == (
        "numeric failure: transition a <- b degenerates at the section: a coefficient is zero or not finite")


# -- offsets resolved at construction, sections evaluated once ---------------------

def _random_dyadic_atlas(rng: np.random.Generator) -> TransitionAtlas:
    """Charts a = 2 b, b and c = b on random multiples of 1/16 in [0, 4],
    repeated within and across records, each partner a few random ulps off
    so that any other nearest sample changes the bits. The triple lists
    multiples of 1/32: points of b and c between two samples, many of them
    exact ties."""
    identity = lambda m, r: r
    overlaps = []
    for _ in range(int(rng.integers(1, 4))):
        for first, scale in (("a", 2.0), ("c", 1.0)):
            mb = rng.integers(0, 65, size=int(rng.integers(1, 10))) / 16.0
            partner = scale * mb + rng.integers(-4, 5, size=mb.size) * 2.0**-44
            charts = (first, "b") if rng.random() < 0.5 else ("b", first)
            overlaps.append(OverlapRecord(charts=charts, samples={first: partner, "b": mb}))
    tb = rng.integers(0, 129, size=12) / 32.0
    return TransitionAtlas(
        charts=["a", "b", "c"],
        psi={key: identity for key in [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]},
        sections={"a": lambda m: 0.5 * m, "b": lambda m: m, "c": lambda m: m},
        overlaps=overlaps,
        triples=[TripleRecord(charts=("a", "b", "c"), samples={"a": 2.0 * tb, "b": tb, "c": tb})],
    )


def _listed(atlas: TransitionAtlas, chart: str) -> list[float]:
    records = [*atlas.overlaps, *atlas.triples]
    return [float(m) for rec in records if chart in rec.samples for m in np.asarray(rec.samples[chart], dtype=float)]


def test_listed_offsets_equal_the_scan_on_random_atlases():
    rng = np.random.default_rng(20)
    for trial in range(60):
        atlas = _random_dyadic_atlas(rng)
        fast, slow = shift_transitions(atlas), _reference_shift(atlas)
        for i, j in atlas.psi:
            pairs, listed = _pairs(atlas, i, j), _listed(atlas, j)
            offsets = _nearest_offsets(pairs, np.array(listed))
            # every listed m is resolved, each as the scan resolves it
            assert set(offsets) == set(listed), trial
            for m in listed:
                assert m + offsets[m] == _scan_image(pairs, m), (trial, i, j, m)
            unlisted = rng.uniform(-1.0, 5.0, 6).tolist() + [m + 2.0**-9 for m in listed[:6]]
            for m in listed + unlisted + listed[::-1]:
                for r in (0.0, 0.3):
                    assert fast.psi[(i, j)](m, r) == slow.psi[(i, j)](m, r), (trial, i, j, m, r)


def test_a_gap_that_ties_at_two_distinct_samples_is_left_to_the_scan():
    """|1e-20 - 1| and |2e-20 - 1| both round to 1: argmin takes the first
    sample, not the neighbour that bisection finds, so the scan decides."""
    mb = np.array([1e-20, 2e-20, 5.0])
    ma = 2.0 * mb + np.array([1.0, -1.0, 0.0]) * 2.0**-44
    identity = lambda m, r: r
    atlas = TransitionAtlas(
        charts=["a", "b"],
        psi={("a", "b"): identity, ("b", "a"): identity},
        sections={"a": lambda m: 0.5 * m, "b": lambda m: m},
        overlaps=[OverlapRecord(charts=("a", "b"), samples={"a": ma, "b": mb})],
        triples=[TripleRecord(charts=("a", "b", "a"), samples={"a": np.array([2.0]), "b": np.array([1.0])})],
    )
    offsets = _nearest_offsets(_pairs(atlas, "a", "b"), np.array(_listed(atlas, "b")))
    assert 1.0 not in offsets and set(offsets) == set(mb.tolist())
    fast, slow = shift_transitions(atlas), _reference_shift(atlas)
    assert fast.psi[("a", "b")](1.0, 0.0) == slow.psi[("a", "b")](1.0, 0.0) == 1.0 - 0.5 * (1.0 + ma[0] - mb[0])


def test_records_that_are_empty_or_not_finite_resolve_only_their_exact_samples():
    """argmin reads a NaN as the nearest sample and an empty record has none,
    so such atlases leave every other m to the scan, as before."""
    listed = np.array([0.5, 0.25, 0.375, 7.0])
    nan_record = (np.array([0.5, math.nan, 0.5]), np.array([1.0, 0.0, 2.0]))
    finite = (np.array([0.25, 0.5]), np.array([3.0, 4.0]))
    for pairs, at_half in (([nan_record, finite], 0.5), ([finite, (np.empty(0), np.empty(0))], 3.5)):
        offsets = {m: off for m, off in _nearest_offsets(pairs, listed).items() if m == m}
        assert offsets == {0.5: at_half, 0.25: 2.75}


def _counted_sections(atlas: TransitionAtlas, calls: list) -> TransitionAtlas:
    def counted(chart, section):
        return lambda m: calls.append((chart, m)) or section(m)

    return replace(atlas, sections={c: counted(c, s) for c, s in atlas.sections.items()})


@pytest.mark.parametrize("n, distinct", [(32, 251), (256, 2002)])
def test_each_section_is_evaluated_once_per_chart_and_m(n, distinct):
    """The section check, the shifted maps and their slopes share one value
    per (chart, m): on the synthetic atlas the shift and the linearization
    read sections at these many distinct (chart, m), and nothing after them
    reads one again. A slope reads only s_j, so no s_i is read at a triple's
    image point (with differenced coefficients: 278 and 2212)."""
    calls = []
    shifted = shift_transitions(_counted_sections(synthetic_circle_atlas(n), calls))
    linearize(shifted)
    assert len(calls) == len(set(calls)) == distinct
    origin_residual(shifted)
    assert len(calls) == distinct


def test_a_zero_base_point_evaluates_its_sections_on_every_call():
    """-0.0 == 0.0, so no value at a zero is reused: a section that tells
    them apart gives the shifted map the value of the zero it is called at."""
    ms = np.array([-0.5, -0.0, 0.0, 0.5])
    tilt = lambda m: 1e-3 * math.copysign(1.0, m)
    atlas = _two_chart(lambda m, r: r, lambda m, r: r, sections={"a": tilt, "b": tilt}, ms=ms)
    calls = []
    fast = shift_transitions(_counted_sections(atlas, calls))
    slow = _reference_shift(atlas)
    calls.clear()
    for m in (0.0, 0.0, -0.0, 0.25, 0.0, -0.0, -0.0, 0.25, 0.5):
        assert fast.psi[("a", "b")](m, 0.25) == slow.psi[("a", "b")](m, 0.25), m
    zeros = [(chart, m) for chart, m in calls if m == 0.0]
    assert len(zeros) == 2 * 6 and [math.copysign(1.0, m) for _, m in zeros[::2]] == [1, 1, -1, 1, -1, -1]
    # 0.25 reads each section once; 0.5 is a sample, read by the section check
    assert sorted(set(calls) - set(zeros)) == [("a", 0.25), ("b", 0.25)] and len(calls) == len(zeros) + 2
