import json

import numpy as np
import pytest

from hhlab.cli import main


def run(args):
    return main(args)


def test_build_summary(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert run(["--out", str(out), "build"]) == 0
    rec = json.loads(out.read_text())
    assert rec["total_dim"] == 144
    assert rec["hermiticity_residual_H"] < 1e-12
    assert rec["spectral_min"] < rec["spectral_max"]


def test_build_even_l_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ell = 2\n")
    assert run(["--config", str(cfg), "build"]) == 2


def test_bad_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    assert run(["--config", str(cfg), "build"]) == 2


def test_cap_exceeded(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("ell = 3\nn_max = 2\n")
    assert run(["--config", str(cfg), "build"]) == 2


@pytest.mark.parametrize("argv", [["verify", "--suite", "halffill"], ["verify", "--suite", "q2"],
                                  ["verify", "--suite", "fourier"],
                                  ["correlate", "--x", "0", "--y", "0"]])
def test_cap_reaches_every_basis(argv, capsys):
    # the default torus has dim 144: every subcommand's basis obeys --cap
    assert run(["--cap", "100", "--seed", "1", *argv]) == 2
    assert "exceeds the cap 100" in capsys.readouterr().err


def test_matrix_dump_layout(tmp_path):
    out = tmp_path / "s.json"
    dump = tmp_path / "H.bin"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_max = 0\n")
    assert run(["--config", str(cfg), "--out", str(out), "build", "--dump", str(dump)]) == 0
    raw = dump.read_bytes()
    dim = int(np.frombuffer(raw[:8], dtype="<u8")[0])
    assert dim == 16
    entries = np.frombuffer(raw[8:], dtype="<f8").reshape(dim, dim, 2)
    H = entries[:, :, 0] + 1j * entries[:, :, 1]
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_verify_requires_seed_for_randomized_suites(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["--out", str(out), "verify", "--suite", "dls"]) == 2


@pytest.mark.parametrize("suite", ["gauss", "dls"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_count_below_one(tmp_path, capsys, suite, count):
    out = tmp_path / "r.jsonl"
    assert run(["--seed", "1", "--out", str(out), "verify", "--suite", suite,
                "--count", count]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --count must be at least 1, got {count}\n"
    assert not out.exists()


def test_verify_theta_suite(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["--nmax", "1", "--out", str(out), "verify", "--suite", "theta"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(r["pass"] for r in records)
    assert {"name", "statement", "lhs", "rhs", "slack", "pass"} <= set(records[0])


@pytest.mark.parametrize("suite,count", [("dls", 40), ("gauss", 4), ("rp", 3),
                                         ("infrared", 3), ("halffill", 2),
                                         ("q2", 30), ("fourier", 1)])
def test_verify_suites_pass(tmp_path, suite, count):
    out = tmp_path / f"{suite}.jsonl"
    code = run(["--seed", "7", "--nmax", "1", "--out", str(out),
                "verify", "--suite", suite, "--count", str(count)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(r["pass"] for r in records)


def test_verify_exit_one_flags_failing_checks(tmp_path):
    # the stated Duhamel constant (and the two-term bound inheriting it) is
    # genuinely violated at small t with beta V ~ 1; the CLI must exit 1
    # with the failing records flagged, while the provable links still pass
    cfg = tmp_path / "corner.cfg"
    cfg.write_text("t = 0.01\nU = 1\nV = 1\ng = 0.8\nomega = 1\nbeta = 1\nn_max = 2\n")
    out = tmp_path / "r.jsonl"
    code = run(["--config", str(cfg), "--seed", "3", "--out", str(out),
                "verify", "--suite", "infrared", "--count", "20"])
    assert code == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    failed = {r["name"] for r in records if not r["pass"]}
    assert failed and failed <= {"ir_duhamel_bound", "ir_two_term"}
    for r in records:
        if r["name"] in ("ir_duhamel_bound_weak", "ir_commutator_bound", "ir_falk_bruch"):
            assert r["pass"]


def test_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert run(["--seed", "123", "--nmax", "1", "--out", str(path),
                    "verify", "--suite", "gauss", "--count", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_correlate(tmp_path):
    out = tmp_path / "c.json"
    assert run(["--seed", "1", "--out", str(out), "correlate", "--x", "0", "--y", "0"]) == 0
    rec = json.loads(out.read_text())
    assert 0.0 <= rec["zigzag"] <= 1.0
    assert rec["sign_relation_residual"] < 1e-10


def test_correlate_bad_site(tmp_path):
    assert run(["correlate", "--x", "0,0", "--y", "0"]) == 2


def test_bound_gap_nonpositive(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("U = 50\ng = 0.1\n")
    out = tmp_path / "b.json"
    assert run(["--config", str(cfg), "--out", str(out), "bound", "--nu", "3"]) == 0
    rec = json.loads(out.read_text())
    assert rec["certified"] is False


def test_bound_fixture(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("t = 1\nU = 1\nV = 10\ng = 3\nomega = 1\nbeta = 10\n")
    out = tmp_path / "b.json"
    assert run(["--config", str(cfg), "--out", str(out), "bound", "--nu", "3"]) == 0
    rec = json.loads(out.read_text())
    assert rec["certified"] is True and rec["rhs"] > 0.3


def test_sweep_shape_and_determinism(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("t = 0.5\nU = 1\nV = 8\nomega = 1\nbeta = 10\n")
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert run(["--config", str(cfg), "--out", str(out), "sweep",
                    "--nu", "3", "--vary", "g=1:3:5", "--vary", "beta=5,10"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0].split(",")[:6] == ["t", "U", "V", "g", "omega", "beta"]
    assert len(lines) == 1 + 5 * 2
    assert all(len(line.split(",")) == 14 for line in lines[1:])


def test_sweep_bad_axis(tmp_path):
    assert run(["sweep", "--nu", "3", "--vary", "zap=1:2:2"]) == 2


def test_integral_diverges_exit_code():
    assert run(["integral", "--nu", "2"]) == 2


def test_integral_not_converged_exit_code(capsys):
    # the quadrature cannot reach 1e-12 and raises RuntimeError: a failed
    # computation, not a failed check
    assert run(["integral", "--nu", "3", "--tol", "1e-12"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: RuntimeError: torus integral did not converge")
    assert "Traceback" not in err


def test_verify_halffill_mechanism_2x2(tmp_path):
    # the first draw runs the hole-particle and spin-flip conjugations at dim 4096
    cfg = tmp_path / "c.cfg"
    cfg.write_text("nu = 2\nn_max = 1\n")
    out = tmp_path / "h.jsonl"
    assert run(["--config", str(cfg), "--seed", "7", "--out", str(out),
                "verify", "--suite", "halffill", "--count", "1"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["name"] for r in records] == ["half_filling", "half_filling_decomposition",
                                            "half_filling_spin_flip"]
    assert all(r["pass"] for r in records)


def test_integral_nu3(tmp_path):
    out = tmp_path / "i.json"
    assert run(["--out", str(out), "integral", "--nu", "3"]) == 0
    rec = json.loads(out.read_text())
    assert rec["oracle_relative_deviation"] < 1e-3
