"""Start-up in fresh processes: which submodules a process runs, and the
benchmark's traced run, which looks each layer's module up by name."""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import table_element
from gluesurf.fourlines import build_four_lines
from test_cli import RECORDED_RUNS, write_gluing

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
SUBMODULES = ["errors", "fourlines", "gluing", "grouptheory", "intlinalg", "invariants",
              "topology"]
# appended to each child's code: the gluesurf submodules that have run, as
# one list on the last line; a registered lazy module has not run
RAN = ("\nimport sys, types\n"
       "print(sorted(k.split('.')[1] for k, m in sys.modules.items()\n"
       "             if k.startswith('gluesurf.') and type(m) is types.ModuleType))\n")


def fresh(code: str, *args: str) -> tuple[str, list[str]]:
    """stdout of a fresh interpreter that runs ``code`` with ``args``, and
    the submodules that ran; the child must write nothing to stderr."""
    done = subprocess.run([sys.executable, "-c", code + RAN, *args], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, timeout=60, check=True)
    assert done.stderr == ""
    out, ran = done.stdout.rstrip("\n").rpartition("\n")[::2]
    return out, ast.literal_eval(ran)


def test_import_runs_no_submodule():
    # each submodule is registered, so the tracer finds it in sys.modules
    out, ran = fresh("import sys\nimport gluesurf\n"
                     "print(sorted(k for k in sys.modules if k.startswith('gluesurf.')),"
                     " 'dataclasses' in sys.modules)")
    assert ran == []
    assert out == f"{[f'gluesurf.{m}' for m in SUBMODULES]} False"


def test_one_name_runs_its_module_and_its_imports():
    assert fresh("from gluesurf import fingerprint")[1] == ["errors", "grouptheory", "intlinalg"]


@pytest.mark.parametrize("read", ["gluesurf.homology_of_X",
                                  "from gluesurf.topology import pi1_presentation"],
                         ids=["name", "import"])
def test_a_failed_first_load_raises_again(tmp_path, read):
    # a copy of the package whose topology module raises at its end: each
    # read runs it again and raises, and leaves it registered but not run
    shutil.copytree(ROOT / "src" / "gluesurf", tmp_path / "gluesurf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "gluesurf" / "topology.py", "a") as fh:
        fh.write("\nraise RuntimeError('topology failed')\n")
    code = ("import gluesurf\n"
            "for _ in range(2):\n"
            "    try:\n"
            f"        {read}\n"
            "    except RuntimeError as err:\n"
            "        print(err)\n")
    done = subprocess.run([sys.executable, "-c", code + RAN], capture_output=True, text=True,
                          env=dict(ENV, PYTHONPATH=str(tmp_path)), cwd=tmp_path, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    *lines, ran = done.stdout.splitlines()
    assert lines == ["topology failed"] * 2
    assert "topology" not in ast.literal_eval(ran)


@pytest.mark.parametrize("command", ["pi1", "homology"])
def test_cli_runs_only_what_the_command_needs(tmp_path, command):
    x01 = write_gluing(tmp_path, "x01.json", build_four_lines(table_element("X0.1")))
    # run as ``python -m gluesurf.cli`` runs it: runpy would warn on stderr
    # if the package had put gluesurf.cli in sys.modules
    code = "import runpy\nrunpy.run_module('gluesurf.cli', run_name='__main__', alter_sys=True)"
    out, ran = fresh(code, command, x01, "--format", "json")
    assert out + "\n" == RECORDED_RUNS[f"{command} X0.1 --format json"]["stdout"]
    assert "fourlines" not in ran and "invariants" not in ran
    assert "topology" in ran


@pytest.mark.parametrize("workload", ["homology", "pi1"])
def test_traced_bench_run_is_correct_in_a_fresh_process(workload):
    # bench/tracer.py wraps each layer at sys.modules["gluesurf.<module>"];
    # here only the workload's own imports have run when the tracer starts
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
                           "--seconds", "0", "--trace", "1"], capture_output=True, text=True,
                          env=ENV, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
