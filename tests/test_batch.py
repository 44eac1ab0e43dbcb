"""The array kernels against the single-point API they implement.

Every scalar entry point is the N = 1 call of an array kernel, so a batch
of N points must reproduce N separate calls bit for bit, fail at the
same points, and raise the same first error.  The kernels must also round
exactly as the single-point formulas they replaced, which fixed the
recorded CLI outputs.  The sweep runs the kernels in blocks and must match
the point-by-point loop across block edges.
"""

import csv
import io
import json

import numpy as np
import pytest

from ohmcov import (
    PARITY_FLIP,
    BoostParams,
    BoostResonance,
    ConstantScalar,
    DiagonalAnisotropic,
    Drude,
    FrameSample,
    OutOfRange,
    StaticFrequency,
    Tabulated,
    UnitsConfig,
    Wavevector4,
    boost_matrix,
    boost_sigma_direct,
    compose,
    inverse,
    transform_sigma_oracle,
)
from ohmcov import cli, materials
from ohmcov.response import _reconstruct
from ohmcov.transform import _direct, _oracle, _unusable

from conftest import rand_unit

N = 96


def assert_same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def points_near_resonance(rng, v, c, n=N):
    """Random (omega, k) with a quarter of the points a few resonance band
    widths from omega = v.k, on both sides, and a few exactly on it."""
    omega = rng.uniform(-5.0, 5.0, n) * c
    k = rng.uniform(-3.0, 3.0, (n, 3))
    near = rng.choice(n, n // 4, replace=False)
    v_dot_k = np.array([float(v @ kk) for kk in k[near]])
    offset = rng.choice([-1.0, 1.0], len(near)) * 10.0 ** rng.uniform(-11.0, -6.0, len(near))
    omega[near] = v_dot_k * (1.0 + offset)
    omega[near[:3]] = v_dot_k[:3]
    return omega, k


def random_sigma(rng, n=N):
    return rng.uniform(-1.0, 1.0, (n, 3, 3)) + 1j * rng.uniform(-1.0, 1.0, (n, 3, 3))


def check_against_single_points(result, singles):
    """result is a kernel's (sigma', omega', k', bad, replay); singles[i] is
    the FrameSample the single-point call returned, or the exception it raised."""
    sigma_p, omega_p, k_p, bad, replay = result
    bad = bad | _unusable(sigma_p, omega_p, k_p)
    errors = [s for s in singles if isinstance(s, Exception)]
    assert 0 < len(errors) < len(singles)
    for i, single in enumerate(singles):
        assert bad[i] == isinstance(single, Exception)
        if not bad[i]:
            assert_same_bits(sigma_p[i], single.sigma)
            assert_same_bits(omega_p[i], np.float64(single.at.omega))
            assert_same_bits(k_p[i], single.at.kvec)
    first = int(np.argmax(bad))
    with pytest.raises(type(errors[0])) as info:
        replay(first)
        FrameSample(sigma_p[first], Wavevector4(omega_p[first], k_p[first]))
    assert str(info.value) == str(errors[0])


def single_calls(fn, sigma, omega, k):
    out = []
    for i in range(len(omega)):
        try:
            out.append(fn(FrameSample(sigma[i], Wavevector4(omega[i], k[i]))))
        except (BoostResonance, StaticFrequency) as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_direct_kernel_is_n_single_calls(rng, c):
    units = UnitsConfig(c)
    v = 0.8 * c * rand_unit(rng)
    omega, k = points_near_resonance(rng, v, c)
    sigma = random_sigma(rng)
    bp = BoostParams(v, units)
    result = _direct(sigma, omega, k, bp)
    check_against_single_points(result, single_calls(lambda s: boost_sigma_direct(s, v, units), sigma, omega, k))


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("parity", [False, True])
def test_oracle_kernel_is_n_single_calls(rng, c, parity):
    units = UnitsConfig(c)
    v = 0.8 * c * rand_unit(rng)
    lam = boost_matrix(v, units)
    if parity:
        lam = compose(lam, PARITY_FLIP)
    # after a parity flip, omega' vanishes at omega = -v.k
    omega, k = points_near_resonance(rng, -v if parity else v, c)
    sigma = random_sigma(rng)
    result = _oracle(sigma, omega, k, lam, units)
    check_against_single_points(result, single_calls(lambda s: transform_sigma_oracle(s, lam, units), sigma, omega, k))


def scalar_kernel(chi, omega, k, c):
    """The single-point reconstruct_full arithmetic the kernels replaced."""
    ratio = c / omega
    chi_k = chi @ k
    full = np.empty((4, 4), dtype=complex)
    full[0, 0] = -(ratio**2) * (k @ chi_k)
    full[0, 1:] = ratio * (k @ chi)
    full[1:, 0] = -ratio * chi_k
    full[1:, 1:] = chi
    return full


def scalar_laws(sigma, omega, k, bp, lam):
    """The single-point arithmetic of the direct law, the oracle and the
    wave-vector map that the kernels replaced: (direct sigma', oracle
    sigma', omega', k')."""
    c = bp.units.c
    four = lam.entries @ np.concatenate(([omega / c], k))
    omega_p, k_p = c * four[0], four[1:]
    v_dot_k = float(bp.v @ k)
    left = np.eye(3) - np.outer(bp.v, k) / omega
    right = np.eye(3) - np.outer(k, bp.v) / omega
    prefactor = 1.0 / (bp.gamma * (1.0 - v_dot_k / omega))
    direct = prefactor * (bp.lambda_hat @ left @ sigma @ right @ bp.lambda_hat)
    primed = lam.entries @ scalar_kernel(1j * omega * sigma, omega, k, c) @ inverse(lam).entries
    return direct, primed[1:, 1:] / (1j * omega_p), omega_p, k_p


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_kernels_round_as_the_scalar_code(rng, c):
    """Bit for bit against the single-point arithmetic, which fixed the
    recorded CLI outputs; numpy's own x**2, complex division, K @ v and
    einsum each round differently from it somewhere in a few thousand points."""
    units = UnitsConfig(c)
    n = 4000
    v = 0.8 * c * rand_unit(rng)
    omega = rng.uniform(0.05, 10.0, n) * rng.choice([-1.0, 1.0], n) * c
    k = rng.uniform(-5.0, 5.0, (n, 3))
    sigma = random_sigma(rng, n)
    bp = BoostParams(v, units)
    lam = bp.matrix()
    direct = _direct(sigma, omega, k, bp)
    oracle = _oracle(sigma, omega, k, lam, units)
    full = _reconstruct(sigma, omega, k, units)
    ok = ~(direct[3] | oracle[3])
    assert ok.sum() > 0.99 * n
    for i in np.flatnonzero(ok):
        ref = scalar_laws(sigma[i], float(omega[i]), k[i], bp, lam)
        for got, want in zip((direct[0][i], oracle[0][i], direct[1][i], direct[2][i]), ref):
            assert_same_bits(got, np.asarray(want))
        assert_same_bits(full[i], scalar_kernel(sigma[i], float(omega[i]), k[i], c))


def tabulated(interpolation):
    rng = np.random.default_rng(5)
    nodes = []
    for kvec in ([0.0, 0.0, 0.0], [0.6, -0.2, 0.1], [-0.5, 0.9, 0.0]):
        for w in np.sort(rng.uniform(-4.0, 4.0, 6)):
            nodes.append((Wavevector4(w, kvec), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))
    return Tabulated(nodes, interpolation=interpolation)


MODELS = {
    "constant": ConstantScalar(1.5 - 0.5j),
    "drude": Drude(2.0 + 0.3j, 0.7),
    "diagonal": DiagonalAnisotropic((-1.0 + 0.2j, Drude(1.5 - 0.2j, 0.4), Drude(-0.5, 2.5))),
    "tabulated-linear": tabulated("linear-in-omega"),
    "tabulated-nearest": tabulated("nearest"),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_evaluate_batch_is_n_single_calls(rng, name):
    model = MODELS[name]
    omega = rng.uniform(-5.0, 5.0, N)
    k = rng.uniform(-1.0, 1.0, (N, 3))
    omega[:4] = 0.0
    if isinstance(model, Tabulated):
        # every node exactly, at a k that snaps to its column
        nodes = model.samples[:: max(1, len(model.samples) // 12)]
        omega[4:4 + len(nodes)] = [kw.omega for kw, _ in nodes]
        k[4:4 + len(nodes)] = [kw.kvec + 0.01 for kw, _ in nodes]
    rng.shuffle(order := np.arange(N))
    omega, k = omega[order], k[order]
    singles = []
    for w, kv in zip(omega, k):
        try:
            singles.append(model.evaluate(Wavevector4(w, kv)))
        except (StaticFrequency, OutOfRange) as exc:
            singles.append(exc)
    ok = np.array([not isinstance(s, Exception) for s in singles])
    assert_same_bits(model.evaluate_batch(omega[ok], k[ok]), np.array([s for s in singles if not isinstance(s, Exception)]))
    first = next(s for s in singles if isinstance(s, Exception))
    with pytest.raises(type(first)) as info:
        model.evaluate_batch(omega, k)
    assert str(info.value) == str(first)


@pytest.mark.parametrize("interpolation", ["linear-in-omega", "nearest"])
def test_nearest_column_search_is_per_point(rng, monkeypatch, interpolation):
    """The broadcast nearest-k search, in chunks, picks the column of the
    per-point argmin, the first of equidistant ones, and evaluate_batch
    gives the same bits as with the per-point search."""
    ties = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
    far = rng.uniform(1.5, 2.5, (36, 3)) * rng.choice([-1.0, 1.0], (36, 3))  # never nearest to a tie below
    columns = ties + far.tolist()
    nodes = [(Wavevector4(w, kv), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
             for kv in columns for w in (0.5, rng.uniform(1.0, 4.0), 5.0)]
    model = Tabulated(nodes, interpolation=interpolation)
    n = 1000
    omega = rng.uniform(0.5, 5.0, n)
    k = rng.uniform(-2.5, 2.5, (n, 3))
    tied_at = np.arange(0, n, 97)  # equidistant from two or three columns, in every chunk
    k[tied_at] = np.resize([[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.0], [-0.5, 0.5, 0.0]], (len(tied_at), 3))
    assert n > materials._NEAREST_CELLS // len(columns)  # more than one chunk

    def per_point(k):
        return np.array([np.argmin(np.linalg.norm(model._kpoints - kv, axis=1)) for kv in k], dtype=int)

    near = model._nearest(k)
    assert_same_bits(near, per_point(k))
    assert_same_bits(model._nearest(k[:0]), per_point(k[:0]))
    for i in tied_at:
        dist = np.linalg.norm(model._kpoints - k[i], axis=1)
        tied = np.flatnonzero(dist == dist.min())
        assert len(tied) > 1 and near[i] == tied[0]
    sigma = model.evaluate_batch(omega, k)
    monkeypatch.setattr(model, "_nearest", per_point)
    assert_same_bits(sigma, model.evaluate_batch(omega, k))


def test_tabulated_out_of_range_text():
    model = Tabulated([(Wavevector4(w, [0.5, 0.0, 0.0]), w * np.eye(3)) for w in (1.0, 3.0)])
    span = "[1.0, 3.0]"
    with pytest.raises(OutOfRange) as info:
        model.evaluate(Wavevector4(3.5, [0.4, 0.0, 0.0]))
    assert str(info.value) == f"omega = 3.5 outside the tabulated span {span} at k = [0.5, 0.0, 0.0]"


def test_sweep_blocks_match_the_point_loop(tmp_path, capsys):
    """A grid larger than one block, with a resonance just past the first
    block's edge, gives the rows and skips of the point-by-point loop."""
    units = UnitsConfig(2.0)
    v = np.array([0.8, 0.3, -0.2])
    model = Drude(3.0 + 0.5j, 0.4)
    rng = np.random.default_rng(11)
    ks = rng.uniform(-3.0, 3.0, (31, 3))
    omegas = rng.uniform(-6.0, 6.0, 40)
    edge = cli.SWEEP_BLOCK + 3  # grid index of (omegas[33], ks[3]), in the second block
    omegas[edge // 31] = float(v @ ks[edge % 31])
    model_path = tmp_path / "drude.json"
    model_path.write_text(json.dumps({"type": "drude", "sigma0": [3.0, 0.5], "tau": 0.4}))
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", f"--model={model_path}", "--c=2", "--velocity=" + ",".join(map(repr, v.tolist())),
        "--omega=" + ",".join(map(repr, omegas.tolist())),
        "--k=" + ";".join(",".join(map(repr, kv)) for kv in ks.tolist()), f"--output={out}",
    ]
    assert cli.main(argv) == 0
    rows = iter(cli.load_sweep_csv(out))
    skipped = []
    for w in omegas.tolist():
        for kv in ks.tolist():
            kw = Wavevector4(w, kv)
            try:
                _, direct, residual, _ = cli._transform_point(model, kw, v, units)
            except BoostResonance as exc:
                skipped.append(f"skipped omega={w!r} k={kv!r}: BoostResonance: {exc}")
                continue
            row = next(rows)
            assert row["at"] == kw and row["at_prime"] == direct.at
            assert_same_bits(row["sigma_prime"], direct.sigma)
            assert row["residual"] == residual
    assert next(rows, None) is None
    assert skipped and capsys.readouterr().err.splitlines() == skipped


def flatten(value):
    return [c for part in value for c in flatten(part)] if isinstance(value, list) else [value]


def test_sweep_csv_cells_are_the_structured_values(tmp_path, capsys):
    """Over three blocks, with skipped points on both sides of the edges and
    cells such as -0.0, 1e-300, 1e+16 and 1e-05, each CSV cell is repr of the
    structured output's value, and the CSV text is what csv.writer writes
    for those rows: no cell needs quoting."""
    rng = np.random.default_rng(3)
    v = np.array([0.1, 0.5, -0.2])
    ks = rng.uniform(-3.0, 3.0, (50, 3))
    ks[1], ks[2], ks[3] = [-0.0, 1e-300, 0.5], [1e-5, 0.25, -0.0], [0.3, 1e16, -0.2]
    omegas = rng.uniform(0.5, 6.0, 45)
    omegas[5] = 1e-5
    omegas[20] = 0.0  # grid points 1000-1049 are static, across the first block edge
    omegas[40] = float(v @ ks[48])  # grid point 2048, the third block's first, is resonant
    assert len(omegas) * len(ks) > 2 * cli.SWEEP_BLOCK
    model_path = tmp_path / "drude.json"
    model_path.write_text(json.dumps({"type": "drude", "sigma0": [2.0, -0.5], "tau": 0.5}))
    argv = [
        "sweep", f"--model={model_path}", "--velocity=" + ",".join(map(repr, v.tolist())),
        "--omega=" + ",".join(map(repr, omegas.tolist())),
        "--k=" + ";".join(",".join(map(repr, kv)) for kv in ks.tolist()),
    ]
    outputs = {}
    for fmt in ("csv", "structured"):
        assert cli.main(argv + [f"--format={fmt}"]) == 0
        outputs[fmt] = capsys.readouterr()
    assert outputs["csv"].err == outputs["structured"].err
    doc = json.loads(outputs["structured"].out)
    assert len(doc["skipped"]) == 51 and outputs["csv"].err.count("skipped omega=") == 51
    keys = ["omega", "k", "omega_prime", "k_prime", "sigma_prime", "residual"]
    assert all(list(record) == keys for record in doc["rows"])
    rows = [flatten([record[key] for key in keys]) for record in doc["rows"]]
    assert len(rows) == len(omegas) * len(ks) - 51

    text = outputs["csv"].out
    lines = text.splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert [line.split(",") for line in lines[1:]] == [[repr(x) for x in row] for row in rows]
    assert {"-0.0", "1e-300", "1e+16", "1e-05"} <= {cell for line in lines[1:] for cell in line.split(",")}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.SWEEP_COLUMNS)
    writer.writerows(rows)
    assert text == buf.getvalue()
