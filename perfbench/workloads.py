"""The benchmark's workloads.

Each workload has a set-up (everything before the first item), a generator
that turns the run's seed into item inputs, the item itself (one unit of
work, timed), and a correctness gate.  The gate has two parts:

* every item: every check record passes, and every value that does not
  depend on the item's input (log Z(0), the seed-independent records of a
  verify report) matches the reference recorded at the seed commit;
* once per run, after the measured loop: fixed reference inputs are run
  again and every lhs/rhs is compared with the recorded reference.

Values are compared numerically, each within the tolerance its own check
applies (relative, with the checks' scale floor of 1), never bytewise: the
last digits of the 2x2 figures change with the BLAS thread count.

hhlab is reached only through the module namespace ``hh`` handed in by the
caller, so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

# the acceptance fixture of the randomized-field criteria (3, 5 and 6)
FIELD_PARAMS = dict(t=1.0, U=1.0, V=2.0, g=0.8, omega=1.2, beta=2.0, n_max=1)

# seed of the fixed reference inputs recorded in reference.json
REFERENCE_SEED = 20160104

# each check's own tolerance, by record-name prefix (first match wins); the
# default 1e-10 is that of the theta, left/right, DLS, Gaussian-domination
# and half-filling checks
_TOLERANCES = (
    ("fourier_g", 1e-8),
    ("fourier_", 1e-9),
    ("rp_of_Z", 1e-9),
    ("ir_", 1e-9),
    ("convexity_lemma", 1e-9),
    ("q2_", 1e-9),
    ("trace_product", 1e-12),
    ("dls_equality", 1e-12),
)

# relative tolerance of the torus integral (the CLI's default --tol); the
# sweep's ir_term and rhs inherit it
INTEGRAL_TOL = 1e-4


def check_tolerance(name):
    for prefix, tol in _TOLERANCES:
        if name.startswith(prefix):
            return tol
    return 1e-10


def close(a, b, tol):
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def failed_records(records, where):
    return [f"{where}: check {r['name']} failed (slack {r['slack']!r})"
            for r in records if not r["pass"]]


def compare_records(got, want, where):
    if [r["name"] for r in got] != [r["name"] for r in want]:
        return [f"{where}: record names differ from the reference"]
    problems = []
    for k, (g, w) in enumerate(zip(got, want)):
        tol = check_tolerance(g["name"])
        for side in ("lhs", "rhs"):
            if not close(g[side], w[side], tol):
                problems.append(f"{where}: record {k} {g['name']}.{side} = {g[side]!r}, "
                                f"reference {w[side]!r} (tol {tol})")
    return problems


def block_sizes(H):
    """Sizes of the connected components of H's exact sparsity pattern."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    mask = H != 0.0
    np.fill_diagonal(mask, True)
    _, labels = connected_components(csr_matrix(mask), directed=False)
    return np.bincount(labels)


def run_cli(hh, argv):
    """hhlab.cli.main with its standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hh.cli.main(argv)
    return code, buf.getvalue()


class _Torus2x2:
    """Shared set-up pieces of the 2x2 workloads (nu=2, L=1, n_max=1)."""

    n_ref_fields = 2

    def _base(self, hh):
        params = hh.model.ModelParams(**FIELD_PARAMS)
        basis = hh.hilbert.build_basis(hh.lattice.build_lattice(2, 1), params.n_max)
        H2 = hh.model.build_doubleprime(params, basis)
        return {"params": params, "basis": basis, "H2": H2}

    def sector_matrix(self, hh, state):
        return state["H2"]

    def record(self, hh, state):
        fields = self.reference_fields()
        return {"fields": [self.encode(h) for h in fields],
                "records": [self.item(hh, state, h) for h in fields]}

    def check_reference(self, hh, state, ref):
        problems = []
        for k, (enc, want) in enumerate(zip(ref["fields"], ref["records"])):
            where = f"reference field {k}"
            got = self.item(hh, state, self.decode(enc))
            problems += failed_records(got, where) + compare_records(got, want, where)
        return problems


class GaussRP(_Torus2x2):
    """Gaussian domination and reflection positivity of Z(h), as in
    ``hhlab verify --suite gauss/rp`` and acceptance criterion 5."""

    name = "gauss_rp_2x2"
    n_job = 3
    setup_reps = 1

    def setup(self, hh):
        state = self._base(hh)
        state["ens"] = hh.rpverify.FieldPartition(state["params"], state["basis"], state["H2"])
        return state

    def draw(self, rng):
        return rng.standard_normal(4)

    def item(self, hh, state, h):
        args = (state["params"], state["basis"], h, state["ens"])
        return [hh.rpverify.gaussian_domination_check(*args).to_record(),
                hh.rpverify.rp_reflection_check(*args).to_record()]

    def check_item(self, records, ref, where):
        problems = failed_records(records, where)
        gauss, rp = records
        if not close(gauss["rhs"], ref["log_z0"], check_tolerance(gauss["name"])):
            problems.append(f"{where}: log Z(0) = {gauss['rhs']!r}, reference {ref['log_z0']!r}")
        if not close(rp["lhs"], 2.0 * gauss["lhs"], check_tolerance(rp["name"])):
            problems.append(f"{where}: rp lhs {rp['lhs']!r} is not 2 log Z(h) = {2 * gauss['lhs']!r}")
        return problems

    def reference_fields(self):
        rng = np.random.default_rng(REFERENCE_SEED)
        # the constant field: Z(const) = Z(0) exactly
        return [*rng.standard_normal((self.n_ref_fields, 4)), np.full(4, 0.75)]

    def encode(self, h):
        return [float(v) for v in h]

    def decode(self, enc):
        return np.array(enc)

    def record(self, hh, state):
        ref = super().record(hh, state)
        ref["log_z0"] = ref["records"][0][0]["rhs"]
        return ref

    def check_reference(self, hh, state, ref):
        problems = super().check_reference(hh, state, ref)
        const = self.item(hh, state, self.decode(ref["fields"][-1]))[0]
        if abs(const["slack"]) > check_tolerance(const["name"]):
            problems.append(f"constant field: Z(const) != Z(0), slack {const['slack']!r}")
        return problems


class Infrared(_Torus2x2):
    """The infrared chain for complex fields, as in ``hhlab verify --suite
    infrared`` and acceptance criterion 6."""

    name = "infrared_2x2"
    n_job = 20
    setup_reps = 1

    def setup(self, hh):
        state = self._base(hh)
        state["spec"] = hh.thermo.spectral(state["H2"], state["params"].beta)
        state["bond_exp"] = hh.thermo.pairing_bond_expectations(
            state["params"], state["basis"], state["spec"])
        return state

    def draw(self, rng):
        return rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def item(self, hh, state, h):
        checks = hh.rpverify.infrared_chain_check(
            state["params"], state["basis"], h, state["spec"], state["H2"], state["bond_exp"])
        return [c.to_record() for c in checks]

    def check_item(self, records, ref, where):
        return failed_records(records, where)

    def reference_fields(self):
        rng = np.random.default_rng(REFERENCE_SEED)
        return list(rng.standard_normal((self.n_ref_fields, 4))
                    + 1j * rng.standard_normal((self.n_ref_fields, 4)))

    def encode(self, h):
        return [[float(v.real), float(v.imag)] for v in h]

    def decode(self, enc):
        return np.array([complex(re, im) for re, im in enc])


class Quick1D:
    """The everyday small path through ``hhlab.cli.main``: the bound engine
    once in set-up, then ``verify --suite all`` at the default nu=1 config
    per item."""

    name = "quick_1d"
    n_job = 2
    setup_reps = 3
    integral_nus = (3, 4, 5)
    # 40 x 50 = 2000 points, certified and uncertified
    sweep_argv = ["sweep", "--nu", "3", "--vary", "t=0.02:0.5:40", "--vary", "V=2:20:50"]
    sweep_rows_kept = 20
    reference_seeds = (7, 8, 9, 10)

    def setup(self, hh):
        state = {"integrals": {}}
        for nu in self.integral_nus:
            code, text = run_cli(hh, ["integral", "--nu", str(nu)])
            state["integrals"][str(nu)] = (code, text)
        state["sweep"] = run_cli(hh, self.sweep_argv)
        return state

    def draw(self, rng):
        return int(rng.integers(2 ** 31))

    def item(self, hh, state, seed):
        code, text = run_cli(hh, ["--seed", str(seed), "verify", "--suite", "all"])
        return code, [json.loads(line) for line in text.splitlines()]

    def check_item(self, output, ref, where):
        code, records = output
        problems = failed_records(records, where)
        if code != 0:
            problems.append(f"{where}: verify exit code {code}")
        if len(records) != len(ref["records"]):
            return problems + [f"{where}: {len(records)} records, reference has "
                               f"{len(ref['records'])}"]
        for k, side in ref["invariant"]:
            got, want = records[k], ref["records"][k]
            tol = check_tolerance(want["name"])
            if got["name"] != want["name"] or not close(got[side], want[side], tol):
                problems.append(f"{where}: record {k} {got['name']}.{side} = {got[side]!r}, "
                                f"reference {want[side]!r} (tol {tol})")
        return problems

    def sector_matrix(self, hh, state):
        d = hh.cli.CONFIG_DEFAULTS
        params = hh.model.ModelParams(t=d["t"], U=d["U"], V=d["V"], g=d["g"],
                                      omega=d["omega"], beta=d["beta"], n_max=d["n_max"])
        basis = hh.hilbert.build_basis(hh.lattice.build_lattice(d["nu"], d["ell"]), d["n_max"])
        return hh.model.build_doubleprime(params, basis)

    def _setup_outputs(self, state):
        integrals = {nu: json.loads(text) for nu, (_, text) in state["integrals"].items()}
        lines = state["sweep"][1].splitlines()
        return integrals, lines[0].split(","), [line.split(",") for line in lines[1:]]

    def record(self, hh, state):
        integrals, columns, rows = self._setup_outputs(state)
        step = len(rows) // self.sweep_rows_kept
        reports = [self.item(hh, state, s)[1] for s in self.reference_seeds]
        first = reports[0]
        invariant = [[k, side] for k, rec in enumerate(first) for side in ("lhs", "rhs")
                     if all(rep[k][side] == rec[side] for rep in reports[1:])]
        return {
            "integrals": integrals,
            "sweep_columns": columns,
            "sweep_rows": {str(i): rows[i] for i in range(0, len(rows), step)},
            "sweep_count": len(rows),
            "seed": self.reference_seeds[0],
            "records": first,
            "invariant": invariant,
        }

    def check_reference(self, hh, state, ref):
        problems = []
        codes = [code for code, _ in state["integrals"].values()] + [state["sweep"][0]]
        if any(codes):
            problems.append(f"set-up exit codes {codes}")
        integrals, columns, rows = self._setup_outputs(state)
        for nu, want in ref["integrals"].items():
            for key in ("value", "oracle"):
                if not close(integrals[nu][key], want[key], INTEGRAL_TOL):
                    problems.append(f"integral nu={nu} {key} = {integrals[nu][key]!r}, "
                                    f"reference {want[key]!r}")
        if columns != ref["sweep_columns"] or len(rows) != ref["sweep_count"]:
            problems.append("sweep columns or row count differ from the reference")
        else:
            for i, want in ref["sweep_rows"].items():
                got = rows[int(i)]
                # a certificate may flip only where rhs is within the
                # integral's tolerance of 0
                near_zero = abs(float(want[columns.index("rhs")])) < 1e-3
                for col, g, w in zip(columns, got, want):
                    if col == "certified":
                        ok = g == w or near_zero
                    else:
                        ok = close(g, w, INTEGRAL_TOL)
                    if not ok:
                        problems.append(f"sweep row {i} {col} = {g}, reference {w}")
        code, records = self.item(hh, state, ref["seed"])
        where = f"reference seed {ref['seed']}"
        problems += failed_records(records, where) + compare_records(records, ref["records"], where)
        if code != 0:
            problems.append(f"{where}: verify exit code {code}")
        return problems


WORKLOADS = {wl.name: wl for wl in (GaussRP(), Infrared(), Quick1D())}
