"""No CLI path loads scipy: the runtime needs numpy and the standard library alone.

Each case runs in a fresh interpreter, since the suite itself imports scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rdbounds

SRC = str(Path(rdbounds.__file__).resolve().parents[1])

# runs each argv through cli.main in turn and prints the scipy modules loaded after each
SNIPPET = """
import contextlib, io, json, sys
from rdbounds import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded.append([code, sorted(m for m in sys.modules if m.startswith("scipy"))])
print(json.dumps(loaded))
"""

README_LAPLACIAN = [
    "bounds", "--source", "laplacian", "--alpha", "1.41421356237", "--epsilon", "0.1",
    "--grid-var", "d", "--grid-min", "0.005", "--grid-max", "0.6", "--grid-count", "60",
    "--bounds", "slb,ru,rau,rge,trivial",
]


def scipy_after_each(*argvs):
    proc = subprocess.run([sys.executable, "-c", SNIPPET, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_laplacian_and_tabulated_paths_load_no_scipy(tmp_path):
    csv = tmp_path / "tab.csv"
    csv.write_text("x,mass\n-0.3,0.25\n0.0,0.5\n0.3,0.25\n")
    tabulated = ["dmax", "--source", f"csv:{csv}", "--epsilon", "0.1"]
    gaussian = ["bounds", "--source", "gaussian", "--epsilon", "0.1", "--grid-count", "3",
                "--bounds", "slb,ru,rge"]
    lap, tab, gauss = scipy_after_each(README_LAPLACIAN, tabulated, gaussian)
    assert lap == [0, []]
    assert tab == [0, []]
    assert gauss == [0, []]


def test_gaussian_dmax_and_ba_solves_load_no_scipy():
    dmax = ["dmax", "--source", "gaussian", "--epsilon", "0.1"]
    ba = ["ba", "--source", "gaussian", "--epsilon", "0.1", "--grid-count", "2",
          "--ba-n", "101", "--ba-max-iter", "20"]
    verify = ["verify", "--alpha", "1.41421356237", "--epsilon", "0.1", "--ba-n", "101",
              "--ba-max-iter", "50"]
    verify_gaussian = ["verify", "--source", "gaussian", "--epsilon", "0.1", "--ba-n", "101",
                       "--ba-max-iter", "50"]
    results = scipy_after_each(dmax, ba, verify, verify_gaussian)
    # verify runs every check and fails its BA checks on this coarse grid
    assert [code for code, _ in results] == [0, 0, 1, 1]
    assert [loaded for _, loaded in results] == [[], [], [], []]
