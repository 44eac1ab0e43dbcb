"""Acceptance checks for the whole package.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them on success).
"""

import json

import numpy as np

from ohmcov import (
    NATURAL,
    Drude,
    FrameSample,
    FullResponse4,
    PotentialSet,
    Wavevector4,
    boost_matrix,
    boost_sigma_direct,
    compose,
    constraint_residual,
    fields_from_potential,
    inverse,
    projector_inverse,
    reconstruct_full,
    rotation_embed,
    save_model,
    textbook_ohm,
    textbook_ohm_nr,
    transform_wavevector,
)
from ohmcov.cli import main
from ohmcov.verify import (
    continuity_suite,
    gauge_invariance_suite,
    ohm_covariance_suite,
    oracle_equivalence_suite,
    rel_error,
    round_trip_suite,
    textbook_specialization_suite,
)

from conftest import rand_rotation, rand_sigma, rand_unit


def report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_oracle_equivalence():
    result = oracle_equivalence_suite(np.random.default_rng(0), 1000)
    ok = result.max_residual < 1e-10 and result.seconds < 5.0
    report(1, "oracle equivalence", ok,
           f"max rel error {result.max_residual:.3e} over 1000 samples in {result.seconds:.2f} s")


def test_criterion_2_round_trip():
    result = round_trip_suite(np.random.default_rng(0), 1000)
    ok = result.max_residual < 1e-10
    report(2, "transform round trip", ok,
           f"max rel error {result.max_residual:.3e} over 1000 samples")


def test_criterion_3_ohm_covariance():
    result = ohm_covariance_suite(np.random.default_rng(0), 500)
    ok = result.max_residual < 1e-10
    report(3, "Ohm's law covariance", ok,
           f"max four-current rel error {result.max_residual:.3e} over 500 configurations")


def test_criterion_4_constraint_covariance():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        kw = Wavevector4(rng.uniform(0.1, 10.0), rng.uniform(0.0, 5.0) * rand_unit(rng))
        full = reconstruct_full(rand_sigma(rng), kw)
        lam = compose(boost_matrix(rng.uniform(0.0, 0.9) * rand_unit(rng)),
                      rotation_embed(rand_rotation(rng)))
        moved = FullResponse4(
            lam.entries @ full.entries @ inverse(lam).entries,
            transform_wavevector(lam, kw),
        )
        worst = max(worst, *constraint_residual(moved))
    ok = worst < 1e-12
    report(4, "constraint covariance", ok,
           f"max contraction residual {worst:.3e} over 500 transformed kernels")


def test_criterion_5_gauge_invariance():
    result = gauge_invariance_suite(np.random.default_rng(0), 500)
    ok = result.max_residual < 1e-13
    report(5, "gauge invariance", ok,
           f"max current change {result.max_residual:.3e} over 500 samples")


def test_criterion_6_continuity():
    result = continuity_suite(np.random.default_rng(0), 500)
    ok = result.max_residual < 1e-12
    report(6, "continuity", ok,
           f"max normalized residual of omega rho = k.j: {result.max_residual:.3e}")


def test_criterion_7_textbook_specialization():
    result = textbook_specialization_suite(np.random.default_rng(0), 500)
    sigma0 = 2.0 - 0.7j
    sample = FrameSample(sigma0 * np.eye(3), Wavevector4(1.0, np.zeros(3)))
    boosted = boost_sigma_direct(sample, np.array([0.6, 0.0, 0.0]))
    eig = sorted(np.linalg.eigvals(boosted.sigma), key=lambda z: z.real)
    expected = sorted([1.25 * sigma0, sigma0 / 1.25, sigma0 / 1.25], key=lambda z: z.real)
    eig_err = max(abs(a - b) for a, b in zip(eig, expected))
    ok = result.max_residual < 1e-12 and eig_err < 1e-12
    report(7, "textbook specialization", ok,
           f"max drift mismatch {result.max_residual:.3e}, k=0 eigenvalue error {eig_err:.3e}")


def test_criterion_8_nonrelativistic_scaling():
    rng = np.random.default_rng(0)
    sigma0 = 1.7 + 0.3j
    ratios = []
    while len(ratios) < 50:
        kw = Wavevector4(rng.uniform(0.1, 10.0), rng.uniform(0.0, 5.0) * rand_unit(rng))
        z = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
        fields = fields_from_potential(PotentialSet(z[0], z[1:], kw))
        speed = rng.uniform(0.05, 0.2)
        v = speed * rand_unit(rng)
        d_full = np.max(np.abs(textbook_ohm(sigma0, v, fields) - textbook_ohm_nr(sigma0, v, fields)))
        # directions where the quadratic coefficient nearly cancels would
        # measure the quartic tail instead; skip those rare draws
        if d_full < 1e-3 * abs(sigma0) * np.max(np.abs(fields.E)) * speed**2:
            continue
        d_half = np.max(
            np.abs(textbook_ohm(sigma0, v / 2.0, fields) - textbook_ohm_nr(sigma0, v / 2.0, fields))
        )
        ratios.append(d_full / d_half)
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(8, "non-relativistic limit scaling", ok,
           f"halving |v| shrinks the formula gap by {min(ratios):.3f}x to {max(ratios):.3f}x")


def test_criterion_9_projector_identity():
    # the product is exactly singular at omega = v.k and its condition
    # number blows up on approach, so a 1e-13 check is only meaningful for
    # generic points; keep |omega - v.k| at least 10% of the larger scale
    rng = np.random.default_rng(0)
    worst = 0.0
    produced = 0
    while produced < 1000:
        omega = rng.uniform(0.1, 10.0)
        kvec = rng.uniform(0.0, 5.0) * rand_unit(rng)
        v = rng.uniform(0.0, 0.9) * rand_unit(rng)
        dot = float(v @ kvec)
        if abs(omega - dot) < 0.1 * max(abs(omega), np.linalg.norm(v) * np.linalg.norm(kvec)):
            continue
        proj = np.eye(3) - np.outer(kvec, v) / omega
        inv = projector_inverse(kvec, v, omega)
        worst = max(worst, float(np.max(np.abs(proj @ inv - np.eye(3)))))
        worst = max(worst, float(np.max(np.abs(inv @ proj - np.eye(3)))))
        produced += 1
    ok = worst < 1e-13
    report(9, "projector inverse identity", ok,
           f"max deviation from identity {worst:.3e} over 1000 samples")


def test_criterion_10_cli_contract(tmp_path, capsys):
    clean = main(["verify", "--seed", "0"])
    captured = capsys.readouterr()
    clean_doc = json.loads(captured.out)

    faulty = main(["verify", "--seed", "0", "--samples", "200", "--inject-fault"])
    capsys.readouterr()

    model = Drude(2.0, 0.5)
    model_file = tmp_path / "model.json"
    save_model(model, model_file)
    sweep_file = tmp_path / "sweep.json"
    v = np.array([0.3, 0.0, 0.0])
    swept = main([
        "sweep", "--model", str(model_file), "--velocity", "0.3,0,0",
        "--omega", "1,2,3,4,5", "--k", "0.7,0,0", "--format", "structured", "--output", str(sweep_file),
    ])
    capsys.readouterr()
    rows = json.loads(sweep_file.read_text())["rows"]
    worst = 0.0
    for row in rows:  # boost each written sigma' back to the point it came from
        at, at_prime = Wavevector4(row["omega"], row["k"]), Wavevector4(row["omega_prime"], row["k_prime"])
        back = boost_sigma_direct(FrameSample(np.array(row["sigma_prime"]).view(complex)[..., 0], at_prime), -v)
        worst = max(worst, rel_error(back.sigma, model.evaluate(at)))
        worst = max(worst, rel_error(back.at.four(), at.four()))

    ok = clean == 0 and clean_doc["passed"] and faulty == 1 and swept == 0 and len(rows) == 5 and worst < 1e-9
    report(10, "CLI contract", ok,
           f"verify exits {clean} clean / {faulty} faulted; sweep round trip error {worst:.3e}")
