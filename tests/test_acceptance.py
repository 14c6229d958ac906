"""Acceptance suite: every exit criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them even on
success).  The heavy criteria reuse one spectral decomposition per
Hamiltonian, as the runtime budgets assume.
"""

import json
import time

import numpy as np
import pytest

import oracles
from hhlab import bounds, model, rpverify, thermo
from hhlab.cli import main as cli_main
from hhlab.hilbert import build_basis
from hhlab.lattice import build_lattice

P = model.ModelParams

# fixture parameter sets used by the randomized-field criteria; the chain
# inequalities hold with wide, recorded margins here (the stated Duhamel
# constant is tight only at small t with beta V near 1)
FIELD_PARAMS = dict(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=1)
STRONG_PARAMS = dict(t=0.1, U=1.0, V=5.0, g=2.0, omega=1.0, beta=20.0)


def report(num, passed, text):
    print(f"criterion {num:2d} {'PASS' if passed else 'FAIL'}: {text}")
    assert passed, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def nu2_field_state():
    params = P(**FIELD_PARAMS)
    lat = build_lattice(2, 1)
    basis = build_basis(lat, params.n_max)
    H2 = model.build_doubleprime(params, basis)
    return lat, params, basis, H2


def test_criterion_01_half_filling():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0

    def random_params(n_max_choices):
        return P(t=float(rng.uniform(0.1, 2)), U=float(rng.uniform(0.1, 3)),
                 V=float(rng.uniform(0.1, 3)), g=float(rng.uniform(-2, 2)),
                 omega=float(rng.uniform(0.3, 2)), beta=float(rng.uniform(0.0, 4)),
                 n_max=int(rng.choice(n_max_choices)))

    def check(params, basis):
        nonlocal worst
        (res,) = rpverify.half_filling_check(params, basis)
        worst = max(worst, res.slack)

    lat1 = build_lattice(1, 1)
    for _ in range(20):
        params = random_params([0, 1, 2, 3, 4])
        check(params, build_basis(lat1, params.n_max))

    # the 4096-dimensional geometry, through the check that verify --suite halffill runs
    basis = build_basis(build_lattice(2, 1), 1)
    for _ in range(20):
        check(random_params([1]), basis)
    elapsed = time.time() - t0
    report(1, worst < 1e-10 and elapsed < 60,
           f"<n_x> = 1 over 40 draws, max deviation {worst:.2e}, {elapsed:.0f}s")


def test_criterion_02_transformation_identities():
    t0 = time.time()
    params = P(t=0.9, U=1.4, V=1.1, g=0.8, omega=1.3, beta=1.2, n_max=2)
    lat = build_lattice(1, 1)
    basis = build_basis(lat, params.n_max)
    dev = 0.0
    Vf = model.zigzag_fermion(basis).to_dense()
    for x in lat.sites:
        for spin in ("up", "down"):
            got = Vf @ oracles.c(basis, x, spin) @ Vf.conj().T
            want = (oracles.cdag if lat.parity(x) == "odd" else oracles.c)(basis, x, spin)
            dev = max(dev, float(np.max(np.abs(got - want))))
        q = oracles.charge(basis, x)
        dev = max(dev, float(np.max(np.abs(Vf @ q @ Vf.conj().T
                                           - lat.staggered_sign(x) * q))))
    H1 = oracles.build_transformed(params, basis)
    H2 = model.build_doubleprime(params, basis)
    w1, w2 = np.linalg.eigvalsh(H1), np.linalg.eigvalsh(H2)
    spec_dev = float(np.max(np.abs(w1 - w2))) / max(1.0, float(np.max(np.abs(w1))))
    field_dev = float(np.max(np.abs(oracles.build_field_hamiltonian(params, basis, np.zeros(2))
                                    - H2)))
    elapsed = time.time() - t0
    report(2, dev < 1e-10 and spec_dev < 1e-10 and field_dev == 0.0 and elapsed < 60,
           f"zigzag conjugations {dev:.1e}, spectra {spec_dev:.1e}, "
           f"H''(0) entrywise {field_dev:.1e}, {elapsed:.0f}s")


def test_criterion_03_theta_structure(nu2_field_state):
    t0 = time.time()
    lat, params, basis, H2 = nu2_field_state
    checks = rpverify.theta_relations_check(params, basis)
    checks += rpverify.verify_lr_split(params, basis,
                                       np.random.default_rng(3).standard_normal(4))
    worst = max(c.slack for c in checks)
    elapsed = time.time() - t0
    report(3, all(c.passed for c in checks) and worst < 1e-10 and elapsed < 300,
           f"{len(checks)} reflection identities, worst deviation {worst:.1e}, "
           f"{elapsed:.0f}s")


def test_criterion_04_dls_fuzz():
    t0 = time.time()
    checks = rpverify.dls_fuzz(n_instances=1000, seed=2024, dim_max=8, tol=1e-10)
    by_name = {c.name: c for c in checks}
    fuzz_ok = by_name["dls_fuzz"].passed
    eq0 = by_name["dls_equality_lambda0"]
    eqs = by_name["dls_equality_symmetric"]
    elapsed = time.time() - t0
    report(4, fuzz_ok and eq0.passed and eqs.passed
           and eq0.slack <= 1e-12 and eqs.slack <= 1e-12,
           f"1000 instances, worst slack {by_name['dls_fuzz'].slack:+.1e}; equality "
           f"cases {eq0.slack:.1e}/{eqs.slack:.1e}, {elapsed:.0f}s")


def test_criterion_05_gaussian_domination_and_rp(nu2_field_state):
    t0 = time.time()
    lat, params, basis, H2 = nu2_field_state
    ens = rpverify.FieldPartition(params, basis, H2)
    rng = np.random.default_rng(505)
    worst_gauss = worst_rp = np.inf
    for _ in range(200):
        h = rng.standard_normal(4)
        g = rpverify.gaussian_domination_check(params, basis, h, ens, tol=1e-9)
        r = rpverify.rp_reflection_check(params, basis, h, ens, tol=1e-9)
        worst_gauss = min(worst_gauss, g.slack)
        worst_rp = min(worst_rp, r.slack)
    const = rpverify.gaussian_domination_check(params, basis, 1.3 * np.ones(4), ens)
    elapsed = time.time() - t0
    report(5, worst_gauss >= -1e-9 and worst_rp >= -1e-9 and abs(const.slack) < 1e-10
           and elapsed < 1800,
           f"200 fields: min gauss slack {worst_gauss:+.1e}, min rp slack "
           f"{worst_rp:+.1e}, constant-h equality {abs(const.slack):.1e}, {elapsed:.0f}s")


def test_criterion_06_infrared_chain(nu2_field_state):
    t0 = time.time()
    lat, params, basis, H2 = nu2_field_state
    spec = thermo.spectral(H2, params.beta)
    bond_exp = thermo.pairing_bond_expectations(params, basis, spec)
    rng = np.random.default_rng(606)
    worst = {}
    for _ in range(100):
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # the closed-form/direct commutator agreement at 1e-9 is asserted
        # inside the g/b/c evaluation
        for c in rpverify.infrared_chain_check(params, basis, h, spec, H2, bond_exp,
                                               tol=1e-9):
            worst[c.name] = min(worst.get(c.name, np.inf), c.slack)
    elapsed = time.time() - t0
    named = ", ".join(f"{k.removeprefix('ir_')} {v:+.1e}" for k, v in worst.items())
    report(6, all(v >= -1e-9 for v in worst.values()) and elapsed < 1800,
           f"100 complex fields: min slacks {named}, {elapsed:.0f}s")


def test_criterion_07_q2_chain():
    t0 = time.time()
    conv = rpverify.convexity_lemma_check(n_pairs=500, dim_max=32, seed=707, tol=1e-9)
    params = P(**STRONG_PARAMS, n_max=2)
    checks = rpverify.q2_lower_bound_check(params, build_basis(build_lattice(1, 1), 2), tol=1e-9)
    by_name = {c.name: c for c in checks}
    prod = by_name["q2_product_state"]
    chain = by_name["q2_lower_bound"]
    elapsed = time.time() - t0
    report(7, conv.passed and prod.passed and chain.passed and chain.lhs > 0,
           f"free-energy lemma over 500 pairs (slack {conv.slack:+.1e}); "
           f"product-state energy dev {prod.slack:.1e}; bound {chain.lhs:.3f} <= "
           f"<q_o^2> = {chain.rhs:.3f}, {elapsed:.0f}s")


def test_criterion_08_bound_engine():
    t0 = time.time()
    vals = [bounds.torus_integral(3, grid_n=g, refinements=r)[0]
            for g, r in ((8, 5), (16, 4), (32, 4))]
    stable = (max(vals) - min(vals)) / vals[-1] < 1e-3
    oracle, _ = bounds.torus_integral_oracle(3)
    oracle_ok = abs(vals[-1] - oracle) / oracle < 1e-3

    limit = bounds.main_bound(P(t=1e-18, U=1, V=10, g=3, omega=1, beta=1e12), 3)
    limit_ok = abs(limit.rhs - 1.0) < 1e-6
    fixture = bounds.main_bound(P(t=1, U=1, V=10, g=3, omega=1, beta=10), 3)
    uncert = bounds.main_bound(P(t=1, U=50, V=1, g=0.1, omega=1, beta=5), 3)
    elapsed = time.time() - t0
    report(8, stable and oracle_ok and limit_ok and fixture.certified
           and not uncert.certified,
           f"integral stable/oracle ok ({vals[-1]:.4f} vs {oracle:.4f}); "
           f"limit |rhs-1| = {abs(limit.rhs - 1):.1e}; fixture rhs = {fixture.rhs:.4f} "
           f"certified; gap<=0 uncertified, {elapsed:.0f}s")


def test_criterion_09_qualitative_charge_order():
    t0 = time.time()
    params = P(**STRONG_PARAMS, n_max=6)
    lat = build_lattice(1, 1)
    basis = build_basis(lat, params.n_max)
    x = (-1,)
    orig = thermo.charge_correlation(params, basis, x, (0,), which="original")
    staggered = lat.staggered_sign(x) * orig
    worst = 0.0
    for site in lat.sites:
        zz = thermo.charge_correlation(params, basis, site, (0,), which="zigzag")
        o = thermo.charge_correlation(params, basis, site, (0,), which="original")
        worst = max(worst, abs(zz - lat.staggered_sign(site) * o))
    elapsed = time.time() - t0
    report(9, staggered > 0 and worst < 1e-10,
           f"staggered correlation {staggered:.4f} > 0 at the far site; "
           f"zigzag sign relation dev {worst:.1e}, {elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        out = tmp_path / name
        code = cli_main(["--seed", "42", "--nmax", "1", "--out", str(out),
                         "verify", "--suite", "gauss", "--count", "3"])
        assert code == 0
        outputs.append(out.read_bytes())
    sweeps = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = cli_main(["--seed", "42", "--out", str(out), "sweep", "--nu", "3",
                         "--vary", "g=1:3:5"])
        assert code == 0
        sweeps.append(out.read_bytes())
    records = [json.loads(line) for line in outputs[0].decode().splitlines()]
    elapsed = time.time() - t0
    report(10, outputs[0] == outputs[1] and sweeps[0] == sweeps[1]
           and all(r["pass"] for r in records),
           f"byte-identical verify report ({len(outputs[0])} bytes) and sweep CSV "
           f"({len(sweeps[0])} bytes) across repeated seeded runs, {elapsed:.0f}s")
