"""Tests for conductivity models, the reality check, and model files."""

import io
import json

import numpy as np
import pytest

from ohmcov import (
    ConstantScalar,
    DiagonalAnisotropic,
    Drude,
    InvariantViolation,
    OutOfRange,
    ParseError,
    StaticFrequency,
    Tabulated,
    Wavevector4,
    check_reality,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

KW = Wavevector4(1.0, np.array([0.3, 0.0, -0.2]))


def tab_nodes(values, omegas, kvec=np.zeros(3)):
    return [(Wavevector4(w, kvec), np.asarray(s, dtype=complex)) for w, s in zip(omegas, values)]


def test_constant_scalar_evaluate():
    model = ConstantScalar(2.0)
    np.testing.assert_array_equal(model.evaluate(KW), 2.0 * np.eye(3))
    np.testing.assert_array_equal(model.evaluate(Wavevector4(9.0, np.ones(3))), 2.0 * np.eye(3))


def test_drude_unit_omega_tau():
    model = Drude(3.0, 1.0)
    expected = 3.0 * (1.0 + 1.0j) / 2.0
    np.testing.assert_allclose(model.evaluate(Wavevector4(1.0, np.zeros(3))), expected * np.eye(3), rtol=1e-15)


def test_drude_dc_limit():
    model = Drude(2.0, 1.0)
    out = model.evaluate(Wavevector4(1e-10, np.zeros(3)))
    np.testing.assert_allclose(out, 2.0 * np.eye(3), rtol=1e-9)


def test_drude_dissipative_sign():
    # Im(sigma/sigma0) = omega tau / (1 + omega^2 tau^2), odd in omega
    model = Drude(5.0, 0.7)
    for omega in (-3.0, -0.4, 0.4, 3.0):
        value = model.evaluate(Wavevector4(omega, np.zeros(3)))[0, 0] / 5.0
        expected = omega * 0.7 / (1.0 + (omega * 0.7) ** 2)
        assert value.imag == pytest.approx(expected, rel=1e-14)


def test_drude_rejects_bad_tau():
    with pytest.raises(InvariantViolation):
        Drude(1.0, 0.0)
    with pytest.raises(InvariantViolation):
        Drude(1.0, -1.0)


def test_diagonal_evaluate_and_axis_accessors():
    model = DiagonalAnisotropic((2.0, 3.0j, Drude(1.0, 1.0)))
    out = model.evaluate(Wavevector4(1.0, np.zeros(3)))
    np.testing.assert_allclose(out, np.diag([2.0, 3.0j, (1.0 + 1.0j) / 2.0]), rtol=1e-15)
    assert model.sx == 2.0
    assert model.sy == 3.0j
    assert model.sz == Drude(1.0, 1.0)


def test_models_reject_static_point():
    for model in (ConstantScalar(1.0), Drude(1.0, 1.0), DiagonalAnisotropic((1.0, 1.0, 1.0))):
        with pytest.raises(StaticFrequency):
            model.evaluate(Wavevector4(0.0, np.zeros(3)))


def test_reality_check_passes_for_real_models():
    points = [Wavevector4(w, np.array([w, 0.0, -w])) for w in (0.3, 1.0, 4.0)]
    assert check_reality(ConstantScalar(2.0), points).passed
    assert check_reality(Drude(3.0, 0.8), points).passed


def test_reality_check_flags_complex_scalar():
    report = check_reality(ConstantScalar(1.0 + 1.0j), [KW])
    assert not report.passed
    assert len(report.violations) == 1


def test_reality_check_names_offending_point():
    nodes = [
        (Wavevector4(1.0, np.zeros(3)), (2.0 + 1.0j) * np.eye(3)),
        (Wavevector4(-1.0, np.zeros(3)), (2.0 - 1.0j) * np.eye(3)),
        (Wavevector4(3.0, np.zeros(3)), (1.0 + 0.5j) * np.eye(3)),
        (Wavevector4(-3.0, np.zeros(3)), (1.0 + 0.5j) * np.eye(3)),  # corrupted mirror
    ]
    model = Tabulated(nodes, interpolation="nearest")
    report = check_reality(model, [Wavevector4(1.0, np.zeros(3)), Wavevector4(3.0, np.zeros(3))])
    assert not report.passed
    offenders = [kw for kw, _ in report.violations]
    assert offenders == [Wavevector4(3.0, np.zeros(3))]


def test_tabulated_exact_nodes():
    sig = np.arange(9, dtype=complex).reshape(3, 3) + 0.5j
    model = Tabulated([(KW, sig)])
    np.testing.assert_array_equal(model.evaluate(KW), sig)


def test_tabulated_linear_interpolation():
    model = Tabulated(tab_nodes([np.eye(3), 3.0 * np.eye(3)], [1.0, 3.0]))
    out = model.evaluate(Wavevector4(2.0, np.zeros(3)))
    np.testing.assert_allclose(out, 2.0 * np.eye(3), rtol=1e-15)
    quarter = model.evaluate(Wavevector4(1.5, np.zeros(3)))
    np.testing.assert_allclose(quarter, 1.5 * np.eye(3), rtol=1e-15)


def test_tabulated_nearest_mode():
    model = Tabulated(tab_nodes([np.eye(3), 3.0 * np.eye(3)], [1.0, 3.0]), interpolation="nearest")
    out = model.evaluate(Wavevector4(1.4, np.zeros(3)))
    np.testing.assert_array_equal(out, np.eye(3))


def test_tabulated_out_of_range():
    model = Tabulated(tab_nodes([np.eye(3), 3.0 * np.eye(3)], [1.0, 3.0]))
    for omega in (0.5, 4.0):
        with pytest.raises(OutOfRange):
            model.evaluate(Wavevector4(omega, np.zeros(3)))
    nearest = Tabulated(tab_nodes([np.eye(3), 3.0 * np.eye(3)], [1.0, 3.0]), interpolation="nearest")
    with pytest.raises(OutOfRange):
        nearest.evaluate(Wavevector4(4.0, np.zeros(3)))


def test_tabulated_picks_nearest_k_column():
    k1 = np.array([1.0, 0.0, 0.0])
    k2 = np.array([5.0, 0.0, 0.0])
    model = Tabulated(
        [
            (Wavevector4(1.0, k1), 1.0 * np.eye(3)),
            (Wavevector4(1.0, k2), 9.0 * np.eye(3)),
        ],
        interpolation="nearest",
    )
    out = model.evaluate(Wavevector4(1.0, np.array([1.2, 0.0, 0.0])))
    np.testing.assert_array_equal(out, np.eye(3))


def test_tabulated_nearest_k_beyond_float_range():
    """A distance to a k column beyond float range reads inf, never nearer than a finite one, and numpy does not warn
    (an error under this suite's filter)."""
    far = np.array([1e308, 0.0, 0.0])
    model = Tabulated([(Wavevector4(1.0, np.zeros(3)), np.eye(3)), (Wavevector4(1.0, far), 9.0 * np.eye(3))],
                      interpolation="nearest")
    np.testing.assert_array_equal(model.evaluate(Wavevector4(1.0, -far)), np.eye(3))


def test_tabulated_nodes_are_read_only():
    """A write through the public samples raises, so evaluate, == and the
    saved document keep describing the same table."""
    model = Tabulated(tab_nodes([np.eye(3), 3.0 * np.eye(3)], [1.0, 3.0]))
    twin = Tabulated(tab_nodes([np.eye(3), 3.0 * np.eye(3)], [1.0, 3.0]))
    kw, sigma = model.samples[0]
    with pytest.raises(ValueError, match="read-only"):
        sigma[0, 0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        kw.kvec[0] = 5.0
    assert model == twin
    assert model_to_dict(model) == model_to_dict(twin)
    np.testing.assert_array_equal(model.evaluate(Wavevector4(1.0, np.zeros(3))), np.eye(3))


@pytest.mark.parametrize("field, value", [("interpolation", "cubic"), ("real_fields", True), ("samples", ())])
def test_tabulated_settings_are_read_only(field, value, tmp_path):
    """The command line shares a loaded model between calls, so a setting
    that evaluate and save_model read cannot be reassigned."""
    model = Tabulated(tab_nodes([np.eye(3), 3.0 * np.eye(3)], [1.0, 3.0]), interpolation="nearest")
    with pytest.raises(AttributeError):
        setattr(model, field, value)
    assert (model.interpolation, model.real_fields, len(model.samples)) == ("nearest", False, 2)
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json") == model


def test_tabulated_rejects_duplicates_and_empty():
    with pytest.raises(InvariantViolation):
        Tabulated([(KW, np.eye(3)), (KW, 2.0 * np.eye(3))])
    with pytest.raises(InvariantViolation):
        Tabulated([])


def test_tabulated_real_fields_flag():
    good = [
        (Wavevector4(1.0, np.zeros(3)), (2.0 + 1.0j) * np.eye(3)),
        (Wavevector4(-1.0, np.zeros(3)), (2.0 - 1.0j) * np.eye(3)),
    ]
    Tabulated(good, real_fields=True)
    bad = [
        (Wavevector4(1.0, np.zeros(3)), (2.0 + 1.0j) * np.eye(3)),
        (Wavevector4(-1.0, np.zeros(3)), (2.0 + 1.0j) * np.eye(3)),
    ]
    with pytest.raises(InvariantViolation, match="omega=1.0"):
        Tabulated(bad, real_fields=True)


ALL_MODELS = [
    ConstantScalar(2.0 + 0.5j),
    Drude(3.0, 0.5),
    DiagonalAnisotropic((2.0, 3.0j, Drude(1.0, 2.0))),
    Tabulated(tab_nodes([np.eye(3) + 0.5j, 3.0 * np.eye(3)], [1.0, 3.0]), interpolation="nearest"),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_dict_round_trip(model):
    assert model_from_dict(model_to_dict(model)) == model


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_file_round_trip(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model
    stream = io.StringIO()
    save_model(model, stream)
    stream.seek(0)
    assert load_model(stream) == model


def test_load_minimal_constant_scalar(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"type": "constant-scalar", "sigma0": [2.0, 0.0]}')
    model = load_model(path)
    assert model == ConstantScalar(2.0)


def test_load_drude_bad_tau(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"type": "drude", "sigma0": [1.0, 0.0], "tau": -1.0}')
    with pytest.raises(InvariantViolation):
        load_model(path)


def test_parse_error_invalid_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"type": "drude", ')
    with pytest.raises(ParseError, match="line"):
        load_model(path)


def test_parse_error_missing_field():
    with pytest.raises(ParseError, match="sigma0"):
        model_from_dict({"type": "drude", "tau": 1.0})


def test_parse_error_unknown_type():
    with pytest.raises(ParseError, match="nope"):
        model_from_dict({"type": "nope"})


def test_parse_error_unknown_extra_field():
    with pytest.raises(ParseError, match="sigma1"):
        model_from_dict({"type": "constant-scalar", "sigma0": [1.0, 0.0], "sigma1": [2.0, 0.0]})


def test_parse_error_bad_pair():
    with pytest.raises(ParseError, match="sigma0"):
        model_from_dict({"type": "constant-scalar", "sigma0": [1.0]})
    with pytest.raises(ParseError, match="sigma0"):
        model_from_dict({"type": "constant-scalar", "sigma0": "1+2i"})


def test_tabulated_samples_parse(tmp_path):
    doc = {
        "type": "tabulated",
        "interpolation": "nearest",
        "samples": [
            {
                "omega": 1.0,
                "k": [0.0, 0.0, 0.0],
                "sigma": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
            }
        ],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    np.testing.assert_array_equal(model.evaluate(Wavevector4(1.0, np.zeros(3))), np.eye(3))


@pytest.mark.parametrize("interpolation", ["linear-in-omega", "nearest"])
def test_tabulated_document_matches_pairs(interpolation):
    """A table read from a document is the table built from its (point,
    tensor) pairs, to the bit, signed zeros included."""
    rng = np.random.default_rng(17)
    ks = rng.uniform(-1.0, 1.0, (4, 3))
    ks[2, 1] = -0.0
    pairs = []
    for kvec in ks:
        for w in np.sort(rng.uniform(0.5, 6.0, 9)):
            pairs.append((Wavevector4(w, kvec), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))
    pairs[5][1][0, 1] = complex(2.5, -0.0)
    pairs[11][1][2, 2] = complex(-0.0, -0.0)
    built = Tabulated(pairs, interpolation=interpolation)
    text = json.dumps(model_to_dict(built))
    assert "-0.0" in text

    loaded = load_model(io.StringIO(text))
    assert loaded == built
    assert json.dumps(model_to_dict(loaded)) == text  # signed zeros round-trip too
    assert np.signbit(loaded.samples[5][1][0, 1].imag) and np.signbit(loaded.samples[11][1][2, 2].real)
    omega = rng.uniform(0.5, 6.0, 500)
    k = rng.uniform(-1.2, 1.2, (500, 3))
    inside = [built._spans[np.argmin(np.linalg.norm(built._kpoints - kv, axis=1))] for kv in k]
    keep = np.array([lo <= w <= hi for w, (lo, hi) in zip(omega, inside)])
    assert keep.sum() > 300
    a, b = loaded.evaluate_batch(omega[keep], k[keep]), built.evaluate_batch(omega[keep], k[keep])
    assert a.tobytes() == b.tobytes()

    # tuples and float subclasses are not plain JSON but are valid input
    doc = json.loads(text)
    doc["samples"] = [
        dict(omega=np.float64(e["omega"]), k=tuple(e["k"]), sigma=tuple(tuple(map(tuple, row)) for row in e["sigma"]))
        for e in doc["samples"]
    ]
    assert model_from_dict(doc) == built


def _with_sigma_entry(value):
    entry = {"omega": 2.0, "k": [0.0, 0.0, 0.0], "sigma": [[[1.0, 0.0]] * 3 for _ in range(3)]}
    entry["sigma"][1] = [[1.0, 0.0], [1.0, value], [1.0, 0.0]]
    return entry


@pytest.mark.parametrize("entry, error, where", [
    ([1.0], ParseError, ": expected an object"),
    ({"omega": 2.0, "k": [0.0, 0.0, 0.0]}, ParseError, ": missing field 'sigma'"),
    ({"omega": True, "k": [0.0, 0.0, 0.0], "sigma": []}, ParseError, ".omega: expected a real number"),
    ({"omega": np.int64(2), "k": [0.0, 0.0, 0.0], "sigma": []}, ParseError, ".omega: expected a real number"),
    ({"omega": 2.0, "k": [0.0, float("nan"), 0.0], "sigma": []}, InvariantViolation, "kvec entries must be finite"),
    ({"omega": 2.0, "k": (0.0, 0.0), "sigma": []}, ParseError, ".k: expected a 3-vector"),
    ({"omega": 2.0, "k": [0.0, 0.0, 0.0], "sigma": [[]] * 3}, ParseError, ".sigma[0]: expected 3 entries"),
    (_with_sigma_entry("0"), ParseError, ".sigma[1][1][1]: expected a real number"),
    (_with_sigma_entry(None), ParseError, ".sigma[1][1][1]: expected a real number"),
    (_with_sigma_entry(False), ParseError, ".sigma[1][1][1]: expected a real number"),
])
def test_tabulated_sample_fault_is_located(entry, error, where):
    """The sample walk refuses an entry exactly when the field-by-field
    checks raise for it, and the error names that entry."""
    good = {"omega": 1.0, "k": [0.0, 0.0, 0.0], "sigma": [[[1.0, 0.0]] * 3 for _ in range(3)]}
    doc = {"type": "tabulated", "samples": [good, entry, dict(good, extra=1)]}
    with pytest.raises(error) as info:
        model_from_dict(doc, where="m")
    if error is ParseError:
        assert str(info.value).startswith("m.samples[1]" + where)
    else:
        assert where in str(info.value)
