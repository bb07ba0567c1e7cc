"""What importing the package and running a command loads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorfield

LAYERS = ("core", "classical", "modespace", "rates", "oracle", "mastereq", "io")

# Runs the CLI as ``python -m mirrorfield`` does and prints its exit code,
# the number of objects its exit left frozen, and the names of the package
# files whose code ran. The interpreter raises an "exec" audit
# event, with the code object, for every module body the import system runs.
PROBE = """
import gc, json, os, runpy, sys
ran = set()
def hook(event, args):
    if event == "exec":
        ran.add(args[0].co_filename)
sys.addaudithook(hook)
try:
    runpy.run_module("mirrorfield", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
package = os.path.dirname(sys.modules["mirrorfield"].__file__)
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(),
                  "modules": sorted(sys.modules), "ran": sorted(
    os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == package)}))
"""


def probe(tmp_path, *argv) -> dict:
    done = subprocess.run([sys.executable, "-c", PROBE, *argv, "--out",
                           str(tmp_path / "out.csv")],
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return result


def modules_run(tmp_path, *argv):
    return set(probe(tmp_path, *argv)["ran"])


def test_subprocesses_import_the_package_under_test(tmp_path):
    # With another checkout's src on PYTHONPATH, every CLI subprocess must
    # test that checkout too, not the one these tests sit in.
    done = subprocess.run([sys.executable, "-c", "import mirrorfield; print(mirrorfield.__file__)"],
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    assert Path(done.stdout.strip()).resolve() == Path(mirrorfield.__file__).resolve()


def test_rates_scan_runs_no_other_layer(tmp_path):
    ran = modules_run(tmp_path, "rates-scan")
    assert {"__init__", "__main__", "cli", "core", "rates", "io"} <= ran
    assert ran.isdisjoint({"classical", "modespace", "oracle", "mastereq"})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mirror", [["perfect"], ["absorbing"], ["symmetric", "--r", "0.3",
                                     "--t", "0.5"], ["lossless", "--r", "0.5"]],
                         ids=lambda mirror: mirror[0])
def test_rates_scan_loads_no_numpy(tmp_path, mirror, fmt):
    # The scan's closed forms run on floats; only array inputs load numpy.
    result = probe(tmp_path, "rates-scan", "--preset", *mirror, "--format", fmt)
    assert "rates" in result["ran"]
    assert not [name for name in result["modules"] if name.split(".")[0] == "numpy"]


def test_oracle_verify_runs_no_mastereq(tmp_path):
    ran = modules_run(tmp_path, "oracle-verify")
    assert {"cli", "errors", "core", "modespace", "rates", "oracle", "io"} <= ran
    assert "mastereq" not in ran


def test_oracle_verify_runs_no_classical(tmp_path):
    # The energy check's Simpson rule lives in modespace.
    assert "classical" not in modules_run(tmp_path, "oracle-verify")


def test_module_entry_freezes_the_heap_at_exit(tmp_path):
    # The shutdown's collector passes skip what cli.entry froze.
    assert probe(tmp_path, "rates-scan", "--k0x-max", "1")["frozen"] > 0


def test_installed_script_calls_the_entry():
    # Read as text: Python 3.10 has no tomllib.
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'mirrorfield = "mirrorfield.cli:entry"'


def test_evolve_runs_no_field_layer(tmp_path):
    ran = modules_run(tmp_path, "evolve", "--gamma", "1")
    assert "mastereq" in ran
    assert ran.isdisjoint({"classical", "modespace", "oracle"})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["--gamma", "1.3", "--delta", "-0.4", "--rho22", "0.6", "--rho12-re", "0.3",
     "--rho12-im", "-0.2"],
    ["--from-mirror", "perfect", "--k0x", "1.5", "--mu", "0.3"],
    ["--from-mirror", "absorbing", "--k0x", "1.5"],
    ["--from-mirror", "symmetric", "--r", "0.3", "--t-rate", "0.5", "--k0x", "2.5"],
    ["--from-mirror", "lossless", "--r", "0.5", "--k0x", "0.7", "--rho22", "0.5",
     "--rho12-im", "0.5"],
], ids=["channel", "perfect", "absorbing", "symmetric", "lossless"])
def test_evolve_loads_no_numpy(tmp_path, argv, fmt):
    # The RK4 recurrence steps on floats and the columns are written as
    # lists.
    result = probe(tmp_path, "evolve", *argv, "--format", fmt)
    assert "mastereq" in result["ran"]
    assert not [name for name in result["modules"] if name.split(".")[0] == "numpy"]


@pytest.mark.parametrize("n_traj", ["1", "10000", "32768"])
def test_unravel_up_to_one_block_loads_no_numpy(tmp_path, n_traj):
    # Up to one Philox block (4 * 8,192 words) the words, the counts and the
    # tables are Python numbers.
    result = probe(tmp_path, "evolve", "--gamma", "1.3", "--delta", "-0.7", "--rho22", "0.5",
                   "--rho12-re", "0.5", "--unravel", n_traj)
    assert "mastereq" in result["ran"]
    assert not [name for name in result["modules"] if name.split(".")[0] == "numpy"]


def test_unravel_loads_no_numpy_random(tmp_path):
    # Above one block the Philox words are made in plain numpy: numpy.random
    # would also load hashlib (OpenSSL) and secrets.
    result = probe(tmp_path, "evolve", "--gamma", "1", "--rho22", "1", "--unravel", "32769")
    assert "mastereq" in result["ran"]
    assert "numpy" in result["modules"]
    assert set(result["modules"]).isdisjoint({"numpy.random", "hashlib", "secrets"})


def test_oracle_verify_loads_no_numpy_polynomial(tmp_path):
    # The Gauss-Legendre rules come from a Newton iteration in plain numpy,
    # not from numpy.polynomial's companion-matrix eigenproblem.
    result = probe(tmp_path, "oracle-verify")
    assert "oracle" in result["ran"]
    assert not [name for name in result["modules"] if name.startswith("numpy.polynomial")]


def test_import_registers_every_layer_and_loads_none():
    code = ("import json, sys, mirrorfield; print(json.dumps("
            "[name for name in sys.modules if name.startswith(('mirrorfield', 'numpy'))]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    loaded = set(json.loads(done.stdout))
    assert {f"mirrorfield.{layer}" for layer in LAYERS} <= loaded
    assert "numpy" not in loaded


def test_public_names_resolve_to_their_definitions():
    assert len(set(mirrorfield.__all__)) == len(mirrorfield.__all__)
    for name in mirrorfield.__all__:
        value = getattr(mirrorfield, name)
        if name == "__version__":
            continue
        owner = sys.modules[value.__module__]
        assert owner.__name__.rsplit(".", 1)[-1] in LAYERS, name
        assert getattr(owner, name) is value, name
    namespace = {}
    exec("from mirrorfield import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mirrorfield.__all__)
    assert set(mirrorfield.__all__) <= set(dir(mirrorfield))
    assert not hasattr(mirrorfield, "no_such_name")
