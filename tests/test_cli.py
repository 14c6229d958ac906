import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import oracles
from hhlab import build_basis, build_lattice, cli, model, thermo
from hhlab.cli import CONFIG_DEFAULTS, main


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
    params = model.ModelParams(**{k: CONFIG_DEFAULTS[k] for k in ("t", "U", "V", "g", "omega", "beta")},
                               n_max=0)
    assert np.array_equal(H, oracles.build_original(params, build_basis(build_lattice(1, 1), 0)))


def test_dump_strips_give_dense_layout(tmp_path):
    # 1000 rows of complex entries span two strips of at most 8 MB
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 1000)) + 1j * rng.standard_normal((1000, 1000))
    A[rng.random(A.shape) < 0.99] = 0.0
    dump = tmp_path / "A.bin"
    cli._dump_matrix(sparse.csr_array(A), dump)
    assert dump.read_bytes() == np.array(1000, dtype="<u8").tobytes() + A.astype("<c16").tobytes()


def test_verify_requires_seed_for_randomized_suites(tmp_path, capsys, monkeypatch):
    # refused before any work: the basis is never built
    built = []

    def build_basis(*args, **kwargs):
        built.append(args)
        raise RuntimeError("basis built before the seed was checked")

    monkeypatch.setattr(cli, "build_basis", build_basis)
    out = tmp_path / "r.jsonl"
    for suite in ("dls", "rp", "gauss", "infrared", "halffill", "q2", "fourier", "all"):
        assert run(["--out", str(out), "verify", "--suite", suite]) == 2
        assert capsys.readouterr().err == (f"error: suite {suite!r} is randomized: a seed is "
                                           "mandatory (--seed or seed= in the config)\n")
    assert built == []


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


@pytest.mark.parametrize("vary", [["t=1:2:0"], ["t=1:2:-1"], ["t=1,2", "t=3"],
                                  ["t=1,2", "g=1", "t=1:2:2"]])
def test_sweep_refuses_empty_range_and_repeated_axis(tmp_path, capsys, vary):
    out = tmp_path / "s.csv"
    argv = ["--out", str(out), "sweep", "--nu", "3"]
    for v in vary:
        argv += ["--vary", v]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("at least 1 point" in err or "more than once" in err)
    assert not out.exists()


def test_negative_seed_refused_as_flag_and_config_key(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    assert run(["--seed", "-1", "--out", str(out), "verify", "--suite", "dls"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert run(["--seed", "-1", "--out", str(out), "build"]) == 2
    assert "--seed" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = -3\n")
    assert run(["--config", str(cfg), "--out", str(out), "build"]) == 2
    assert "seed=" in capsys.readouterr().err
    assert not out.exists()


def test_integral_diverges_exit_code():
    assert run(["integral", "--nu", "2"]) == 2


def test_integral_not_converged_exit_code(capsys):
    # the quadrature cannot reach 1e-12 and raises RuntimeError: a failed
    # computation, not a failed check
    assert run(["integral", "--nu", "3", "--tol", "1e-12"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: RuntimeError: torus integral did not converge")
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_integral_refuses_tolerance_not_finite_and_positive(capsys, tol):
    assert run(["integral", "--nu", "3", "--tol", tol]) == 2
    assert capsys.readouterr().err.startswith("error: rel_tol must be finite and > 0, got ")


@pytest.mark.parametrize("argv", [["bound", "--nu", "0"], ["bound", "--nu", "-2"],
                                  ["sweep", "--nu", "0", "--vary", "t=1,2"]])
def test_nu_below_one_refused(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: nu must be >= 1, got ")


def test_config_nu_zero_refused_by_bound(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("nu = 0\n")
    assert run(["--config", str(cfg), "bound"]) == 2
    assert capsys.readouterr().err == "error: nu must be >= 1, got 0\n"


@pytest.mark.parametrize("argv,config", [
    (["sweep", "--nu", "3", "--vary", "t=nan"], ""),
    (["sweep", "--nu", "3", "--vary", "beta=1,inf"], ""),
    (["bound", "--nu", "3"], "t = nan\n"),
    (["bound", "--nu", "3"], "g = -inf\n"),
])
def test_nonfinite_coupling_refused(tmp_path, capsys, argv, config):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run(["--config", str(cfg), "--out", str(out), *argv]) == 2
    assert " must be finite, got " in capsys.readouterr().err
    assert not out.exists()


def assert_one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1, err


def test_unreadable_config_exits_two(tmp_path, capsys):
    assert run(["--config", str(tmp_path / "missing.cfg"), "bound"]) == 2
    assert_one_error_line(capsys, "error: cannot open config file ")


def test_unwritable_out_exits_two(tmp_path, capsys):
    assert run(["--out", str(tmp_path / "no_dir" / "x.json"), "bound"]) == 2
    assert_one_error_line(capsys, "error: cannot open output file ")


def test_unwritable_dump_exits_two(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_max = 0\n")
    argv = ["--config", str(cfg), "build", "--dump", str(tmp_path / "no_dir" / "d.bin")]
    assert run(argv) == 2
    assert_one_error_line(capsys, "error: cannot open dump file ")


@pytest.mark.parametrize("argv,step,what", [
    (["--seed", "7", "--out", "{bad}", "verify", "--suite", "dls"], "rpverify.dls_fuzz",
     "output file"),
    (["--out", "{bad}", "verify", "--suite", "theta"], "rpverify.theta_relations_check",
     "output file"),
    (["build", "--dump", "{bad}"], "model.hamiltonian_set", "dump file"),
])
def test_unwritable_output_refused_before_the_work(tmp_path, monkeypatch, capsys, argv, step,
                                                   what):
    calls = []

    def expensive(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the work ran before the output path was checked")

    module, name = step.split(".")
    monkeypatch.setattr(getattr(cli, module), name, expensive)
    bad = tmp_path / "no_dir" / "x.out"
    assert run([a.replace("{bad}", str(bad)) for a in argv]) == 2
    assert calls == []
    assert not bad.exists()
    assert_one_error_line(capsys, f"error: cannot open {what} ")


def test_out_that_is_a_directory_exits_two(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "bound"]) == 2
    assert_one_error_line(capsys, "error: cannot open output file ")


def test_config_default_cap_is_the_basis_cap():
    from hhlab.hilbert import DEFAULT_DIM_CAP

    assert CONFIG_DEFAULTS["cap"] == DEFAULT_DIM_CAP


@pytest.mark.parametrize("vary", [["t=0:1:1000000000"], ["t=0:1:1024", "V=1:2:1025"],
                                  ["t=1,2", "V=0:1:1048576"]])
def test_sweep_refuses_oversize_grid_before_building_it(monkeypatch, capsys, vary):
    # the point count is the product of the axis lengths; no axis is built
    def refuse(*args, **kwargs):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(cli.bounds, "phase_sweep", refuse)
    argv = ["sweep", "--nu", "3"]
    for v in vary:
        argv += ["--vary", v]
    assert run(argv) == 2
    assert_one_error_line(capsys, "error: the sweep grid has ")


def test_integral_oversize_grid_exit_code(capsys):
    assert run(["integral", "--nu", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: torus grid too large")
    assert err.count("\n") == 1


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
    assert 0.0 < rec["oracle_error_estimate"] <= 1e-10 * rec["oracle"]


@pytest.mark.parametrize("argv", [
    ["build"],
    ["correlate", "--x", "0,0", "--y", "1,0"],
    *(["--seed", "7", "verify", "--suite", suite, "--count", "1"]
      for suite in ("infrared", "halffill", "q2", "fourier")),
], ids=["build", "correlate", "infrared", "halffill", "q2", "fourier"])
def test_2x2_commands_form_no_dense_full_space_matrix(tmp_path, argv):
    # at nu = 2, n_max = 1 (dim 4096) one dense complex matrix of the full space
    # is 256 MiB; the commands work on CSR arrays and per-component blocks
    cfg = tmp_path / "c.cfg"
    cfg.write_text("nu = 2\nn_max = 1\n")
    tracemalloc.start()
    try:
        assert run(["--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20, peak


def _verify_report(threads):
    """stdout of the default ``--seed 7 verify --suite all`` in a fresh process
    with every common BLAS thread variable set to ``threads``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **{var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS")})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import sys; from hhlab.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", "--seed", "7", "verify", "--suite", "all"],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_report_bytes_repeat_at_fixed_blas_threads():
    # the documented contract: identical config and seed give identical bytes
    # at a fixed BLAS thread count
    assert _verify_report("2") == _verify_report("2")


def test_default_verify_report_same_bytes_at_1_and_2_blas_threads():
    # at the default config the report does not depend on the thread count either
    assert _verify_report("1") == _verify_report("2")


def test_verify_all_solves_each_hamiltonian_once(tmp_path, monkeypatch):
    # the infrared chain and the fourier checks share one spectrum of H''
    calls = []
    spectral = thermo.spectral

    def recording(H, beta):
        calls.append((sparse.csr_array(H), float(beta)))
        return spectral(H, beta)

    monkeypatch.setattr(thermo, "spectral", recording)
    thermo._correlation_state.cache_clear()
    try:
        assert run(["--seed", "7", "--out", str(tmp_path / "r.jsonl"), "verify", "--suite", "all"]) == 0
    finally:
        thermo._correlation_state.cache_clear()
    assert len(calls) > 1
    for i, (A, beta_a) in enumerate(calls):
        for B, beta_b in calls[:i]:
            assert not (beta_a == beta_b and A.shape == B.shape and (A != B).nnz == 0)
