"""Command-line front end.

Subcommands: build, verify, correlate, bound, sweep, integral.  A flat
key=value config file supplies the model and lattice; command-line flags
override it.  Machine-readable output goes to --out (or stdout): JSON
lines for verification reports, CSV for sweeps, JSON objects elsewhere.
Identical config and seed produce byte-identical output files.

Exit codes: 0 success, 1 at least one check failed, 2 invalid input, 3 a
failed computation (RuntimeError, AssertionError or MemoryError); 2 and 3
print one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, model, rpverify, thermo
from .hilbert import build_basis
from .lattice import build_lattice

CONFIG_DEFAULTS = {
    "nu": 1, "ell": 1, "n_max": 2,
    "t": 1.0, "U": 1.0, "V": 2.0, "g": 0.7, "omega": 1.2, "beta": 1.0,
    "cap": 16384,
}


@dataclass
class RunConfig:
    nu: int
    ell: int
    n_max: int
    t: float
    U: float
    V: float
    g: float
    omega: float
    beta: float
    cap: int
    seed: int | None = None

    def params(self):
        return model.ModelParams(t=self.t, U=self.U, V=self.V, g=self.g,
                                 omega=self.omega, beta=self.beta, n_max=self.n_max)


class InputError(Exception):
    pass


def load_config(path):
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{ln}: expected key=value, got {raw.rstrip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def make_config(args):
    raw = dict(CONFIG_DEFAULTS)
    if args.config:
        file_vals = load_config(args.config)
        unknown = set(file_vals) - set(CONFIG_DEFAULTS) - {"seed"}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        raw.update(file_vals)
    for key in ("seed", "cap"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    if getattr(args, "nmax", None) is not None:
        raw["n_max"] = args.nmax
    try:
        cfg = RunConfig(
            nu=int(raw["nu"]), ell=int(raw["ell"]), n_max=int(raw["n_max"]),
            t=float(raw["t"]), U=float(raw["U"]), V=float(raw["V"]), g=float(raw["g"]),
            omega=float(raw["omega"]), beta=float(raw["beta"]),
            cap=int(raw["cap"]),
            seed=None if raw.get("seed") is None else int(raw["seed"]),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad config value: {exc}") from exc
    if cfg.ell < 1 or cfg.ell % 2 == 0:
        raise InputError(f"L must be a positive odd integer, got {cfg.ell}")
    try:
        cfg.params()
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return cfg


def _emit_text(args, text):
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit_text(args, json.dumps(obj, sort_keys=True) + "\n")


def _emit_lines(args, records):
    _emit_text(args, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


# -- subcommands ------------------------------------------------------------------


def _basis(cfg):
    """The basis of the configured torus; refused above the dimension cap."""
    return build_basis(build_lattice(cfg.nu, cfg.ell), cfg.n_max, cap=cfg.cap)


def cmd_build(args):
    cfg = make_config(args)
    basis = _basis(cfg)
    params = cfg.params()
    hs = model.hamiltonian_set(params, basis)
    spec = thermo.spectral(hs.H, params.beta)
    w = spec.eigenvalues
    summary = {
        "n_sites": basis.n_sites,
        "fermion_dim": basis.fermion_dim,
        "boson_dim": basis.boson_dim,
        "total_dim": basis.total_dim,
        "hermiticity_residual_H": hs.residuals["H"],
        "hermiticity_residual_H1": hs.residuals["H1"],
        "hermiticity_residual_H2": hs.residuals["H2"],
        "spectral_min": float(w[0]),
        "spectral_max": float(w[-1]),
        "logZ": spec.logZ,
        "components": len(spec.real_blocks),
    }
    if args.dump:
        _dump_matrix(hs.H, args.dump)
        summary["dump"] = args.dump
    _emit_json(args, summary)
    return 0


def _dump_matrix(H, path):
    """Binary layout: uint64 little-endian dimension, then row-major complex
    entries as little-endian float64 pairs (re, im)."""
    H = np.ascontiguousarray(H, dtype=complex)
    with open(path, "wb") as fh:
        fh.write(np.array(H.shape[0], dtype="<u8").tobytes())
        inter = np.empty((H.shape[0], H.shape[1], 2))
        inter[:, :, 0] = H.real
        inter[:, :, 1] = H.imag
        fh.write(inter.astype("<f8").tobytes())


def _rng_for(cfg, suite):
    if cfg.seed is None:
        raise InputError(f"suite {suite!r} is randomized: a seed is mandatory "
                         "(--seed or seed= in the config)")
    return np.random.default_rng(cfg.seed)


def _field_records(cfg, suite, count, params, basis):
    """The Z(h) checks (rp, gauss) and the infrared chain, on one H'' built
    here and freed on return, before the half-filling checks allocate theirs."""
    checks = []
    lat = basis.lattice
    H2 = model.build_doubleprime(params, basis)

    if suite in ("rp", "gauss", "all"):
        rng = _rng_for(cfg, suite)
        ens = rpverify.FieldPartition(params, basis, H2)
        n = count or 20
        do_rp = suite in ("rp", "all")
        do_gauss = suite in ("gauss", "all")
        for _ in range(n):
            h = rng.standard_normal(lat.n_sites)
            if do_gauss:
                checks.append(rpverify.gaussian_domination_check(params, basis, h, ens))
            if do_rp:
                checks.append(rpverify.rp_reflection_check(params, basis, h, ens))
        const = np.full(lat.n_sites, 0.75)
        res = rpverify.gaussian_domination_check(params, basis, const, ens)
        checks.append(rpverify.CheckResult(
            "gauss_constant_shift", "Z(const) = Z(0)", res.lhs, res.rhs,
            abs(res.slack), abs(res.slack) <= 1e-10))

    if suite in ("infrared", "all"):
        rng = _rng_for(cfg, suite)
        spec = thermo.spectral(H2, params.beta)
        bond_exp = thermo.pairing_bond_expectations(params, basis, spec)
        for _ in range(count or 20):
            h = rng.standard_normal(lat.n_sites) + 1j * rng.standard_normal(lat.n_sites)
            checks += rpverify.infrared_chain_check(params, basis, h, spec, H2, bond_exp)
    return checks


def _verify_records(cfg, suite, count):
    params = cfg.params()
    checks = []
    if suite != "dls":   # built once per run; the DLS suite needs no basis
        basis = _basis(cfg)

    if suite in ("theta", "all"):
        checks += rpverify.theta_relations_check(params, basis)
        checks += rpverify.verify_lr_split(params, basis)

    if suite in ("dls", "all"):
        rng = _rng_for(cfg, suite)
        n = count or 1000
        checks += rpverify.dls_fuzz(n_instances=n, seed=int(rng.integers(2 ** 31)))
        checks.append(rpverify.trace_product_check(seed=int(rng.integers(2 ** 31))))

    if suite in ("rp", "gauss", "infrared", "all"):
        checks += _field_records(cfg, suite, count, params, basis)

    if suite in ("halffill", "all"):
        rng = _rng_for(cfg, suite)
        for k in range(count or 5):
            draw = model.ModelParams(
                t=float(rng.uniform(0.1, 2.0)), U=float(rng.uniform(0.1, 3.0)),
                V=float(rng.uniform(0.1, 3.0)), g=float(rng.uniform(-2.0, 2.0)),
                omega=float(rng.uniform(0.3, 2.0)), beta=float(rng.uniform(0.0, 4.0)),
                n_max=cfg.n_max)
            checks += rpverify.half_filling_check(draw, basis, mechanism=(k == 0))

    if suite in ("q2", "all"):
        rng = _rng_for(cfg, suite)
        checks.append(rpverify.convexity_lemma_check(
            n_pairs=count or 500, seed=int(rng.integers(2 ** 31))))
        strong = model.ModelParams(t=0.1, U=1.0, V=5.0, g=2.0, omega=1.0, beta=20.0,
                                   n_max=cfg.n_max)
        checks += rpverify.q2_lower_bound_check(strong, basis)

    if suite in ("fourier", "all"):
        rng = _rng_for(cfg, suite)
        h = rng.standard_normal((2 * cfg.ell) ** cfg.nu)
        fchecks, _ = bounds.finite_volume_fourier_check(params, basis, h, include_g=True)
        checks += fchecks
    return [c.to_record() for c in checks]


def cmd_verify(args):
    if args.count is not None and args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    cfg = make_config(args)
    records = _verify_records(cfg, args.suite, args.count)
    _emit_lines(args, records)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_correlate(args):
    cfg = make_config(args)
    params = cfg.params()
    x = _parse_site(args.x, cfg.nu)
    y = _parse_site(args.y, cfg.nu)
    basis = _basis(cfg)
    lat = basis.lattice
    orig = thermo.charge_correlation(params, basis, x, y, which="original")
    zz = thermo.charge_correlation(params, basis, x, y, which="zigzag")
    sign = lat.staggered_sign(lat.wrap(np.array(x) - np.array(y)))
    _emit_json(args, {
        "x": list(x), "y": list(y),
        "original": orig, "zigzag": zz,
        "staggered_sign": sign,
        "sign_relation_residual": abs(zz - sign * orig),
    })
    return 0


def _parse_site(text, nu):
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad site {text!r}") from exc
    if len(coords) != nu:
        raise InputError(f"site {text!r} has {len(coords)} coordinates, expected {nu}")
    return coords


def cmd_bound(args):
    cfg = make_config(args)
    nu = args.nu if args.nu is not None else cfg.nu
    rep = bounds.main_bound(cfg.params(), nu)
    _emit_json(args, rep.to_record())
    return 0


SWEEP_COLUMNS = ["t", "U", "V", "g", "omega", "beta", "u_eff", "gap", "entropy_term",
                 "hopping_term", "ir_term", "gamma2_term", "rhs", "certified"]


def _parse_vary(spec):
    if "=" not in spec:
        raise InputError(f"bad --vary {spec!r}; expected name=a,b,c or name=lo:hi:n")
    name, body = spec.split("=", 1)
    name = name.strip()
    if name not in ("t", "U", "V", "g", "omega", "beta"):
        raise InputError(f"cannot sweep {name!r}")
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise InputError(f"bad range {body!r}; expected lo:hi:n")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        values = np.linspace(lo, hi, n).tolist()
    else:
        values = [float(v) for v in body.split(",")]
    return name, values


def cmd_sweep(args):
    cfg = make_config(args)
    nu = args.nu if args.nu is not None else cfg.nu
    axes = [_parse_vary(v) for v in args.vary]
    base = cfg.params()
    points = [base]
    for name, values in axes:
        points = [replace(p, **{name: v}) for p in points for v in values]
    reports = bounds.phase_sweep(points, nu)
    lines = [",".join(SWEEP_COLUMNS)]
    for rep in reports:
        rec = rep.to_record()
        lines.append(",".join(_csv_cell(rec[c]) for c in SWEEP_COLUMNS))
    _emit_text(args, "\n".join(lines) + "\n")
    return 0


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_integral(args):
    if args.nu <= 2:
        raise InputError(f"integral diverges for nu <= 2 (got nu = {args.nu})")
    val, err = bounds.torus_integral(args.nu, rel_tol=args.tol)
    oracle, _ = bounds.torus_integral_oracle(args.nu)
    _emit_json(args, {
        "nu": args.nu,
        "value": val,
        "error_estimate": err,
        "oracle": oracle,
        "oracle_relative_deviation": abs(val - oracle) / abs(oracle),
    })
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hhlab",
        description="Exact-diagonalization lab for the extended Holstein-Hubbard "
                    "model: reflection-positivity checks and charge-order bounds.")
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--seed", type=int, help="RNG seed (mandatory for randomized suites)")
    ap.add_argument("--nmax", type=int, help="phonon truncation override")
    ap.add_argument("--cap", type=int, help="Hilbert-space dimension cap")
    ap.add_argument("--out", help="output file (default stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="assemble H, H', H'' and report a summary")
    p.add_argument("--dump", help="write H in the documented binary layout")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run a verification suite, JSON-lines report")
    p.add_argument("--suite", required=True,
                   choices=["theta", "dls", "rp", "gauss", "infrared", "halffill",
                            "q2", "fourier", "all"])
    p.add_argument("--count", type=int, help="number of random instances/fields")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("correlate", help="charge correlation <q_x q_y>")
    p.add_argument("--x", required=True, help="site, e.g. 0 or 0,-1")
    p.add_argument("--y", required=True, help="site")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("bound", help="evaluate the charge-order bound")
    p.add_argument("--nu", type=int, help="dimension for the bound (default: config nu)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="bound over a parameter grid, CSV")
    p.add_argument("--vary", action="append", required=True,
                   help="axis spec: name=a,b,c or name=lo:hi:n (repeatable)")
    p.add_argument("--nu", type=int, help="dimension for the bound")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("integral", help="torus integral of 1/E(p)")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_integral)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
