"""The verify report, pinned bit for bit.

run_all draws its samples from one seeded stream, so each suite's worst
residual is a fixed number per seed and sample count.  The record below
holds repr(max_residual) and passed for every suite at 1000 samples and
seeds 0-4, and for c = 2 and SI at seeds 0-2 (the draws scale v by c); one
digest pins the same rows at c = 1 seeds 0-39 and at c = 2 and SI seeds 0-4.
Seeds 1 and 4 fail round_trip on a correct build: its fixed 1e-10 tolerance
is too tight for the worst-conditioned samples.  In SI units round_trip and
ohm_covariance fail at every recorded seed.  The record keeps those
failures visible instead of hiding them.

The random stream itself is pinned too: the samplers and every suite's
draws must give, bit for bit, what the reference samplers below give,
the resonance guard's redraws included.  The suites draw a block of
samples at once and fall back to drawing sample by sample only for a
block in which the guard redraws; at the guard's own width no block of
run_all's stream does, which is counted.

The suites evaluate their samples in blocks; the block size must not
change a bit, a NaN residual anywhere must fail its suite, and a sample
that fails a check must raise the error the single-point functions raise
for the first such sample in draw order.  Bad samples are planted through
a wrapper around the generator, so they enter as drawn values.
"""

import hashlib
import math

import numpy as np
import pytest

from ohmcov import BoostParams, InvariantViolation, SpeedLimit, Wavevector4, verify
from ohmcov.verify import run_all, round_trip_suite

RECORD = {
    0: [
        ("oracle_equivalence", "1.8609456608505715e-15", True),
        ("round_trip", "2.485472165572308e-11", True),
        ("gauge_invariance", "2.939787373762971e-15", True),
        ("continuity", "8.44458627234809e-16", True),
        ("ohm_covariance", "8.948617074484476e-14", True),
        ("textbook_specialization", "6.162296923601964e-16", True),
    ],
    1: [
        ("oracle_equivalence", "5.068145923518813e-15", True),
        ("round_trip", "1.571467967597427e-09", False),
        ("gauge_invariance", "1.7082652388793861e-15", True),
        ("continuity", "4.37967373905941e-16", True),
        ("ohm_covariance", "2.4356700911450743e-14", True),
        ("textbook_specialization", "5.270592584244844e-16", True),
    ],
    2: [
        ("oracle_equivalence", "7.893484091231989e-14", True),
        ("round_trip", "6.889379331758309e-11", True),
        ("gauge_invariance", "2.6016163053513146e-15", True),
        ("continuity", "5.27406070568634e-16", True),
        ("ohm_covariance", "1.0830708642029565e-13", True),
        ("textbook_specialization", "6.41667186861918e-16", True),
    ],
    3: [
        ("oracle_equivalence", "3.930414960877238e-15", True),
        ("round_trip", "3.762434163332993e-13", True),
        ("gauge_invariance", "1.826620967179437e-15", True),
        ("continuity", "4.078531485729762e-16", True),
        ("ohm_covariance", "1.0505460311440425e-14", True),
        ("textbook_specialization", "8.570444146787694e-16", True),
    ],
    4: [
        ("oracle_equivalence", "7.298917894005626e-15", True),
        ("round_trip", "2.381211736181553e-10", False),
        ("gauge_invariance", "2.1708673887680905e-15", True),
        ("continuity", "5.202907417571819e-16", True),
        ("ohm_covariance", "3.176170003459131e-14", True),
        ("textbook_specialization", "8.406084343386767e-16", True),
    ],
}

RECORD_BY_C = {
    2.0: {
        0: [
            ("oracle_equivalence", "2.173126445209675e-14", True),
            ("round_trip", "2.3094000128086488e-11", True),
            ("gauge_invariance", "5.794618740277101e-15", True),
            ("continuity", "8.44458627234809e-16", True),
            ("ohm_covariance", "9.279373887730315e-13", True),
            ("textbook_specialization", "6.852540984685887e-16", True),
        ],
        1: [
            ("oracle_equivalence", "2.747397099781813e-15", True),
            ("round_trip", "6.771072761104579e-10", False),
            ("gauge_invariance", "2.796058856852795e-15", True),
            ("continuity", "4.37967373905941e-16", True),
            ("ohm_covariance", "3.2288365519028144e-13", True),
            ("textbook_specialization", "6.957885472154888e-16", True),
        ],
        2: [
            ("oracle_equivalence", "4.904728094326219e-14", True),
            ("round_trip", "6.501928372579442e-11", True),
            ("gauge_invariance", "5.0911235580302245e-15", True),
            ("continuity", "5.27406070568634e-16", True),
            ("ohm_covariance", "5.081024118377974e-12", True),
            ("textbook_specialization", "6.099231889874772e-16", True),
        ],
    },
    299_792_458.0: {
        0: [
            ("oracle_equivalence", "3.890513838057023e-14", True),
            ("round_trip", "1.5642134530062481", False),
            ("gauge_invariance", "1.0263858577306745e-14", True),
            ("continuity", "5.753485483636066e-16", True),
            ("ohm_covariance", "0.0009590879610460808", False),
            ("textbook_specialization", "5.262485439974542e-16", True),
        ],
        1: [
            ("oracle_equivalence", "1.1689704902334386e-12", True),
            ("round_trip", "1.6669312245934373", False),
            ("gauge_invariance", "3.291282281579446e-14", True),
            ("continuity", "4.588048993707253e-16", True),
            ("ohm_covariance", "0.00022687152769679096", False),
            ("textbook_specialization", "5.704230206782995e-16", True),
        ],
        2: [
            ("oracle_equivalence", "9.74150619176233e-13", True),
            ("round_trip", "1.7063781859960807", False),
            ("gauge_invariance", "9.61360600142491e-15", True),
            ("continuity", "5.220242351552715e-16", True),
            ("ohm_covariance", "0.0009369650447360654", False),
            ("textbook_specialization", "6.536067916756525e-16", True),
        ],
    },
}


@pytest.mark.parametrize("seed", sorted(RECORD))
def test_report_bits_are_recorded(seed):
    for c, record in [(1.0, RECORD), *RECORD_BY_C.items()]:
        if seed in record:
            results = run_all(seed, 1000, verify.UnitsConfig(c))
            assert [(r.name, repr(r.max_residual), r.passed) for r in results] == record[seed], c
            assert all(r.samples == 1000 for r in results)


# One sha256 of the report rows at 1000 samples over the seeds below, the
# 40-seed domain README and ROADMAP cite at c = 1 among them, and the
# (c, seed, suite) triples that fail there, so that a new record shows
# which ones flipped.
DIGEST_SEEDS = {1.0: range(40), 2.0: range(5), 299_792_458.0: range(5)}
REPORT_DIGEST = "9f63b1d680e0e598867da32a252f45b526c94cb8be12fef9c5a8caf91c3a7e00"
FAILING = {
    *((1.0, seed, "round_trip") for seed in (1, 4, 26, 30, 32)),
    *((1.0, seed, "ohm_covariance") for seed in (21, 24)),
    (2.0, 1, "round_trip"),
    *((299_792_458.0, seed, suite) for seed in range(5) for suite in ("round_trip", "ohm_covariance")),
}


def test_report_bits_over_forty_seeds_are_recorded():
    rows = [
        [(r.name, repr(r.max_residual), r.passed) for r in run_all(seed, 1000, verify.UnitsConfig(c))]
        for c, seeds in DIGEST_SEEDS.items()
        for seed in seeds
    ]
    keys = [(c, seed) for c, seeds in DIGEST_SEEDS.items() for seed in seeds]
    assert {(*key, name) for key, row in zip(keys, rows) for name, _, passed in row if not passed} == FAILING
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == REPORT_DIGEST


# The reference samplers: how each draw maps the generator's output.
def ref_sigma(rng):
    return rng.uniform(-1.0, 1.0, (3, 3)) + 1j * rng.uniform(-1.0, 1.0, (3, 3))


def ref_direction(rng):
    while True:
        g = rng.standard_normal(3)
        n = float(np.linalg.norm(g))
        if n > 1e-12:
            return g / n


def ref_point(rng):
    return rng.uniform(0.1, 10.0), rng.uniform(0.0, 5.0) * ref_direction(rng)


def ref_velocity(rng, c, vmax=0.9):
    return c * rng.uniform(0.0, vmax) * ref_direction(rng)


def ref_boost_setup(rng, c, rtol=1e-4, redraws=None):
    """sample_boost_setup's draws with a guard of relative width rtol; each
    rejected omega is appended to redraws, if given."""
    while True:
        omega, k = ref_point(rng)
        v = ref_velocity(rng, c)
        v_dot_k = float(v @ k)
        if abs(omega - v_dot_k) > rtol * max(abs(omega), abs(v_dot_k)):
            return omega, k, v
        if redraws is not None:
            redraws.append(omega)


def ref_complex_vec(rng):
    return rng.uniform(-1.0, 1.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3)


def ref_complex(rng):
    return complex(*rng.uniform(-1.0, 1.0, 2))


# Each suite's values per sample, in the order its residuals take them;
# guard holds ref_boost_setup's keyword arguments.
REFERENCE_DRAWS = {
    "oracle_equivalence": lambda rng, c, **guard: (*ref_boost_setup(rng, c, **guard), ref_sigma(rng)),
    "round_trip": lambda rng, c, **guard: (*ref_boost_setup(rng, c, **guard), ref_sigma(rng)),
    "gauge_invariance": lambda rng, c, **guard: (
        *ref_point(rng), ref_sigma(rng), ref_complex(rng), ref_complex_vec(rng), ref_complex(rng)
    ),
    "continuity": lambda rng, c, **guard: (
        *ref_point(rng), ref_sigma(rng), ref_complex(rng), ref_complex_vec(rng),
        *ref_boost_setup(rng, c, **guard), ref_complex_vec(rng), ref_sigma(rng),
    ),
    "ohm_covariance": lambda rng, c, **guard: (
        *ref_boost_setup(rng, c, **guard), ref_sigma(rng), ref_complex(rng), ref_complex_vec(rng)
    ),
    "textbook_specialization": lambda rng, c, **guard: (
        *ref_boost_setup(rng, c, **guard), ref_complex(rng), ref_complex_vec(rng)
    ),
}

STREAM_DRAWS = 2000


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("c", [1.0, 299_792_458.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_public_samplers_follow_the_reference_stream(seed, c):
    units = verify.UnitsConfig(c)
    draws = [
        (verify.sample_sigma, ref_sigma),
        (lambda rng: (lambda kw: (kw.omega, kw.kvec))(verify.sample_point(rng)), ref_point),
        (lambda rng: verify.sample_velocity(rng, units), lambda rng: ref_velocity(rng, c)),
        (lambda rng: verify.sample_velocity(rng, units, 0.5), lambda rng: ref_velocity(rng, c, 0.5)),
        (
            lambda rng: (lambda kw, v: (kw.omega, kw.kvec, v))(*verify.sample_boost_setup(rng, units)),
            lambda rng: ref_boost_setup(rng, c),
        ),
    ]
    for sample, reference in draws:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(STREAM_DRAWS):
            got, want = sample(rng), reference(ref)
            got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
            assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))
        assert rng.bit_generator.state == ref.bit_generator.state


def drawn_columns(monkeypatch, suite, rng, n, units):
    """The columns a suite hands its residuals, with the residuals not evaluated."""
    seen = []
    real = verify._suite

    def spy(name, n, tol, draw, residuals):
        def record(*columns):
            seen.append(columns)
            return np.zeros(len(columns[0]))

        return real(name, n, tol, draw, record)

    monkeypatch.setattr(verify, "_suite", spy)
    getattr(verify, f"{suite}_suite")(rng, n, units)
    return [np.concatenate(c) for c in zip(*seen)]


@pytest.mark.parametrize("c", [1.0, 299_792_458.0])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite", sorted(REFERENCE_DRAWS))
def test_suite_draws_follow_the_reference_stream(monkeypatch, suite, seed, c):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = drawn_columns(monkeypatch, suite, rng, STREAM_DRAWS, verify.UnitsConfig(c))
    want = [np.array(col) for col in zip(*(REFERENCE_DRAWS[suite](ref, c) for _ in range(STREAM_DRAWS)))]
    assert len(got) == len(want)
    assert all(same_bits(g, w) for g, w in zip(got, want))
    assert rng.bit_generator.state == ref.bit_generator.state


WIDE_GUARD = 0.3
GUARD_DRAWS = 500


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("draws", ["sample_boost_setup", *sorted(set(REFERENCE_DRAWS) - {"gauge_invariance"})])
def test_guard_redraws_follow_the_reference_stream(monkeypatch, draws, seed):
    """The resonance guard's redraw keeps the reference stream too.  At its
    width of 1e-4 the guard rejects no draw of the stream tests above, so it
    is widened to 0.3 here, where it rejects some draws of every boost
    sampler.  This runs at c = 1 only: in SI units the guard never fires,
    because there |v.k| is far above omega."""
    monkeypatch.setattr(verify, "SAMPLER_GUARD_RTOL", WIDE_GUARD)
    units, redraws, points = verify.UnitsConfig(1.0), [], counted_points(monkeypatch)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    if draws == "sample_boost_setup":
        setups = (verify.sample_boost_setup(rng, units) for _ in range(GUARD_DRAWS))
        got = [np.array(col) for col in zip(*((kw.omega, kw.kvec, v) for kw, v in setups))]
        want = (ref_boost_setup(ref, 1.0, WIDE_GUARD, redraws) for _ in range(GUARD_DRAWS))
    else:
        got = drawn_columns(monkeypatch, draws, rng, GUARD_DRAWS, units)
        want = (REFERENCE_DRAWS[draws](ref, 1.0, rtol=WIDE_GUARD, redraws=redraws) for _ in range(GUARD_DRAWS))
    want = [np.array(col) for col in zip(*want)]
    assert len(got) == len(want)
    assert all(same_bits(g, w) for g, w in zip(got, want))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert len(redraws) > 0 and len(points) > 0  # blocks with a redraw are drawn sample by sample


@pytest.mark.parametrize("seed", [0, 1])
def test_guard_redraws_after_a_whole_block_follow_the_reference_stream(monkeypatch, seed):
    """In blocks of 5, some blocks of the widened guard's stream are drawn whole and some sample by sample, so
    a block drawn sample by sample also starts from the two uniforms a whole block drew last."""
    monkeypatch.setattr(verify, "BLOCK", 5)
    test_guard_redraws_follow_the_reference_stream(monkeypatch, "oracle_equivalence", seed)


def report(results):
    return [(r.name, r.samples, repr(r.max_residual), r.passed) for r in results]


@pytest.mark.parametrize("c", [1.0, 299_792_458.0])
def test_block_size_does_not_change_the_bits(monkeypatch, c):
    units = verify.UnitsConfig(c)
    whole = report(run_all(4, 50, units))
    monkeypatch.setattr(verify, "BLOCK", 7)
    assert report(run_all(4, 50, units)) == whole


def nan_at(monkeypatch, index):
    """Make the index-th residual that _rel_errors computes, counted over its calls, NaN."""
    seen = 0
    real = verify._rel_errors

    def rel_errors(a, b, floor=verify.ABS_FLOOR):
        nonlocal seen
        r = real(a, b, floor).copy()
        if 0 <= index - seen < len(r):
            r[index - seen] = np.nan
        seen += len(r)
        return r

    monkeypatch.setattr(verify, "_rel_errors", rel_errors)


@pytest.mark.parametrize("suite", ["oracle_equivalence", "round_trip", "ohm_covariance", "textbook_specialization"])
def test_nan_residual_fails_its_suite(monkeypatch, suite):
    monkeypatch.setattr(verify, "BLOCK", 16)
    nan_at(monkeypatch, 25)  # in the second block, neither first nor last
    result = getattr(verify, f"{suite}_suite")(np.random.default_rng(0), 50)
    assert math.isnan(result.max_residual) and not result.passed


class Planted:
    """A Generator whose draws plant(kind, values) may change in place
    before they are handed out: kind is "uniform" or "normal", values the
    call's draws as an array."""

    def __init__(self, rng, plant):
        self.rng, self.plant = rng, plant

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, size=None, out=None):
        return self._planted("uniform", self.rng.random(size, out=out))

    def standard_normal(self, size=None, out=None):
        return self._planted("normal", self.rng.standard_normal(size, out=out))

    def _planted(self, kind, drawn):
        values = np.atleast_1d(drawn)  # the out array itself, or a copy of a scalar draw
        self.plant(kind, values)
        return values if np.ndim(drawn) else float(values[0])


def drawn_blocks(monkeypatch):
    """The columns of each block the suites draw, as their residuals get them."""
    blocks = []
    real = verify._suite

    def spy(name, n, tol, draw, residuals):
        return real(name, n, tol, lambda m: blocks.append(draw(m)) or blocks[-1], residuals)

    monkeypatch.setattr(verify, "_suite", spy)
    return blocks


def test_first_bad_sample_in_draw_order_raises(monkeypatch):
    """In one block, sample 3 is superluminal and sample 9 has a NaN
    conductivity.  The block checks conductivities before velocities, as a
    single sample does, but sample 3 comes first in draw order and raises
    the SpeedLimit a single-point boost of its velocity raises."""
    monkeypatch.setattr(verify, "BLOCK", 16)
    blocks, speeds, runs = drawn_blocks(monkeypatch), [], []

    def plant(kind, values):
        if kind == "uniform" and values.size == 1:  # a velocity's |v| / (0.9 c)
            speeds.append(values)
            if len(speeds) == 4:
                values[0] = 1.5 / 0.9
        elif kind == "uniform" and values.size > 2:  # a conductivity's uniforms, then the next sample's two
            runs.append(values)
            if len(runs) == 10:
                values[:18] = np.nan

    with pytest.raises(SpeedLimit) as info:
        round_trip_suite(Planted(np.random.default_rng(3), plant), 40)
    (omega, k, velocities, sigmas), = blocks
    assert len(speeds) == len(velocities) == 16 and np.isnan(sigmas[9]).all()  # the whole block was drawn
    with pytest.raises(SpeedLimit) as single:
        BoostParams(velocities[3])
    assert str(info.value) == str(single.value)


def drawn_points(columns):
    """The (omega, k) pairs among a suite's columns: a real (m,) column, then a real (m, 3) one."""
    return [
        (w, k) for w, k in zip(columns, columns[1:])
        if w.dtype == k.dtype == float and w.ndim == 1 and k.ndim == 2
    ]


@pytest.mark.parametrize("field, message", [(0, "omega entries must be finite"), (1, "kvec entries must be finite")])
@pytest.mark.parametrize("suite", sorted(REFERENCE_DRAWS))
def test_non_finite_point_raises_the_point_check(monkeypatch, suite, field, message):
    """A drawn point that is not finite, in the middle of a block, raises
    the InvariantViolation a Wavevector4 of it raises, boost setups included:
    the resonance guard lets it through to the check.  Each uniform call of
    more than one draw ends with the two that open a point, omega's then |k|'s."""
    monkeypatch.setattr(verify, "BLOCK", 16)
    blocks, leads = drawn_blocks(monkeypatch), []

    def plant(kind, values):
        if kind == "uniform" and values.size > 1:
            leads.append(values)
            if len(leads) == 21:
                values[field - 2] = np.nan

    with pytest.raises(InvariantViolation) as info:
        getattr(verify, f"{suite}_suite")(Planted(np.random.default_rng(0), plant), 40)
    assert str(info.value) == message
    bad = [
        (w[i], k[i]) for block in blocks for w, k in drawn_points(block)
        for i in np.flatnonzero(~np.isfinite(w) | ~np.isfinite(k).all(axis=1))
    ]
    assert len(bad) == 1
    with pytest.raises(InvariantViolation) as single:
        Wavevector4(*bad[0])
    assert str(single.value) == message


def counted_points(monkeypatch):
    """The calls of verify._point, the sample-by-sample draw of every point."""
    calls = []
    point = verify._point

    def counted(rng, lead):
        calls.append(lead)
        return point(rng, lead)

    monkeypatch.setattr(verify, "_point", counted)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_blocks_are_drawn_whole(monkeypatch, seed):
    """At the guard's width of 1e-4 no sample of these streams is redrawn,
    so every block is drawn at once and none sample by sample."""
    points = counted_points(monkeypatch)
    assert len(run_all(seed, 1000)) == 6
    assert not points


def test_no_wavevector4_per_drawn_point(monkeypatch):
    """The suites build a stacked Wavevector4 per block, not one per drawn
    point: 300 and 512 samples, two blocks each, build as many.
    sample_point still returns a checked one."""
    built = []
    post_init = Wavevector4.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Wavevector4, "__post_init__", counted)
    counts = []
    for n in (300, 512):
        built.clear()
        run_all(0, n)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0
    built.clear()
    kw = verify.sample_point(np.random.default_rng(0))
    assert isinstance(kw, Wavevector4) and len(built) == 1
    monkeypatch.setattr(verify, "_point", lambda rng, lead: (np.nan, np.zeros(3)))
    with pytest.raises(InvariantViolation, match="omega entries must be finite"):
        verify.sample_point(np.random.default_rng(0))


def test_overflowing_magnitudes_fail_the_checks():
    """A magnitude that overflows makes the scale of _rel_errors or of the continuity residual inf, against which any
    difference would read 0: the residual is NaN instead, which fails a suite, and numpy does not warn."""
    a, b = np.array([[1.5e308 + 1.5e308j]]), np.array([[1.5e308 + 1.4e308j]])  # |a| is beyond float range
    assert np.isnan(verify._rel_errors(a, b)).all() and math.isnan(verify.rel_error(a[0], b[0]))
    assert np.isnan(verify._rel_errors(a, a.copy())).all()  # equal, but at a scale nothing can be measured on
    residual = verify._continuity_residual(np.array([0.5]), np.zeros((1, 3)), np.array([1.5e308 + 1.5e308j]),
                                           np.zeros((1, 3), dtype=complex))
    assert np.isnan(residual).all()
    assert not verify.SuiteResult("continuity", 1, float(np.max(residual)), 1e-12, 0.0).passed
    # finite scales keep their bits
    x, y = np.array([[1.0 + 2.0j, 3.0]]), np.array([[1.0 + 2.5j, 3.0]])
    assert verify._rel_errors(x, y).tolist() == [0.5 / 3.0]
