import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hhlab

MODULES = ["hhlab"] + [f"hhlab.{m.name}" for m in pkgutil.iter_modules(hhlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # ``from module import *`` fails on a name in __all__ that the module lacks
    exports = getattr(importlib.import_module(name), "__all__", [])
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exports) <= set(namespace)


def _fresh_python(code):
    """The stdout of ``code`` run in a new interpreter that imports hhlab from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_optional_scipy_unloaded():
    # only lang_firsov_diagnostic needs scipy.optimize; a fresh process must not
    # pay for these on import, nor for the bound engine's commands.  No hhlab
    # module imports scipy at all until a command solves something, so
    # importing every module, the bound commands and the refusal of a missing
    # seed load no scipy module.
    code = (f"import contextlib, io, sys, {', '.join(MODULES)}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['integral', '--nu', '3'], ['bound', '--nu', '3'],\n"
            "                 ['sweep', '--nu', '3', '--vary', 't=0.1,0.2', '--vary', 'V=2,3']):\n"
            "        assert hhlab.cli.main(argv) == 0\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert hhlab.cli.main(['verify', '--suite', 'all']) == 2\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.special') "
            "if m in sys.modules))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]\n[]"


def test_lazy_modules_resolve_to_the_real_objects():
    from hhlab._lazy import LazyModule

    proxies = [(mod, obj) for mod in map(importlib.import_module, MODULES)
               for obj in vars(mod).values() if isinstance(obj, LazyModule)]
    assert {(mod.__name__, obj.__name__) for mod, obj in proxies} == {
        ("hhlab.hilbert", "scipy.sparse"), ("hhlab.model", "scipy.sparse"),
        ("hhlab.rpverify", "scipy.sparse"), ("hhlab.sectors", "scipy.sparse"),
        ("hhlab.sectors", "scipy.sparse.csgraph"), ("hhlab.thermo", "scipy.linalg.blas")}
    for _, proxy in proxies:
        real = importlib.import_module(proxy.__name__)
        for name in ("csr_array", "issparse", "connected_components", "dsyrk"):
            if hasattr(real, name):
                assert getattr(proxy, name) is getattr(real, name)
                assert vars(proxy)[name] is getattr(real, name)   # kept on the proxy
    with pytest.raises(AttributeError):
        proxies[0][1].no_such_name


@pytest.mark.parametrize("scipy_first", [False, True])
def test_lazy_module_resolves_in_either_import_order(scipy_first):
    code = ("import sys\n"
            + ("import scipy.sparse\n" if scipy_first else "")
            + "import hhlab.model, hhlab.thermo\n"
            "print(hhlab.model.sparse.csr_array is sys.modules['scipy.sparse'].csr_array, "
            "hhlab.thermo.blas.dsyrk is sys.modules['scipy.linalg.blas'].dsyrk)")
    assert _fresh_python(code) == "True True"


def test_introspecting_a_lazy_module_loads_nothing():
    # the walk of perfbench's Tracer.install, dunder lookups, callable and copy
    code = ("import contextlib, copy, importlib, inspect, sys\n"
            f"mods = [importlib.import_module(m) for m in {MODULES!r}]\n"
            "from hhlab._lazy import LazyModule\n"
            "for mod in mods:\n"
            "    [attr for attr, obj in vars(mod).items()\n"
            "     if not attr.startswith('_') and callable(obj)\n"
            "     and getattr(obj, '__module__', None) == mod.__name__]\n"
            "    for obj in vars(mod).values():\n"
            "        if isinstance(obj, LazyModule):\n"
            "            assert not callable(obj) and inspect.ismodule(obj)\n"
            "            for name in ('__file__', '__path__', '__wrapped__', '__all__', '__call__'):\n"
            "                assert not hasattr(obj, name)\n"
            "            with contextlib.suppress(TypeError):   # refused, as for a real module\n"
            "                copy.copy(obj)\n"
            "    inspect.getmembers(mod)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


# (module, a module it must not load, since that one imports it and the two would
# form a cycle); ("rpverify", "fuzz") checks the other order, where it must load
@pytest.mark.parametrize("first,second", [("fuzz", "rpverify"), ("rpverify", "fuzz"),
                                          ("sectors", "thermo"), ("sectors", "rpverify")])
def test_fuzz_and_rpverify_import_in_either_order(first, second):
    code = (f"import sys, hhlab.{first}; loaded = 'hhlab.{second}' in sys.modules; "
            f"import hhlab.{second}; print(loaded)")
    assert _fresh_python(code) == str(first == "rpverify")


# Each benchmark child compiles hhlab from source, and the import peak, hence the
# benchmark's peak_rss_mb, rises with the size of the largest module; past about
# 40 kB it moves every workload's peak.
MAX_MODULE_BYTES = 40_000


@pytest.mark.parametrize("path", sorted(Path(hhlab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_source_under_size_limit(path):
    assert path.stat().st_size < MAX_MODULE_BYTES


# perfbench/workloads.py calls these positionally, with these numbers of
# arguments: a signature change must fail here before it breaks the benchmark
BENCHMARK_CALLS = [("lattice", "build_lattice", 2), ("hilbert", "build_basis", 2),
                   ("model", "build_doubleprime", 2), ("thermo", "spectral", 2),
                   ("rpverify", "FieldPartition", 3), ("thermo", "pairing_bond_expectations", 3),
                   ("rpverify", "gaussian_domination_check", 4),
                   ("rpverify", "rp_reflection_check", 4),
                   ("rpverify", "infrared_chain_check", 6), ("cli", "main", 1)]


@pytest.mark.parametrize("module,name,arity", BENCHMARK_CALLS,
                         ids=[f"{m}.{n}" for m, n, _ in BENCHMARK_CALLS])
def test_benchmark_calls_bind(module, name, arity):
    fn = getattr(importlib.import_module(f"hhlab.{module}"), name)
    inspect.signature(fn).bind(*range(arity))


def test_benchmark_config_keys_exist():
    from hhlab.cli import CONFIG_DEFAULTS

    assert {"nu", "ell", "n_max", "t", "U", "V", "g", "omega", "beta"} <= set(CONFIG_DEFAULTS)
