"""Golden-bytes check of the command line on a small committed synth spec.

The files under tests/golden/ were written by the CLI before the miners
moved to bitset counting. Rule output bytes are the contract, so every
command here must reproduce its file exactly.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import behavrules
from behavrules.cli import main

GOLDEN = Path(__file__).parent / "golden"

# output file name -> CLI arguments after the dataset path
COMMANDS = {
    "agt.txt": ["mine-agt", "--min-conf", "80"],
    "agt.jsonl": ["mine-agt", "--min-conf", "80", "--format", "jsonl"],
    "agt_global_strict.txt": [
        "mine-agt", "--min-conf", "70", "--global-ranking", "--strict-redundancy",
    ],
    "apriori.txt": ["mine-apriori", "--min-conf", "80", "--min-support", "2"],
    "apriori_filtered.txt": ["mine-apriori", "--min-conf", "80", "--filter-redundant"],
    "sweep.csv": ["sweep"],
}
# files a command writes beside its stdout: name -> (stdout file, flag)
SIDE_FILES = {"agt.dot": ("agt.txt", "--dot"), "sweep.json": ("sweep.csv", "--json")}


def run_pipeline(workdir: Path) -> dict[str, bytes]:
    """gen -> ingest -> every command; returns output name -> bytes."""
    log, dataset = workdir / "log.csv", workdir / "dataset.csv"
    assert main(["gen", "--spec", str(GOLDEN / "spec.json"), "--out", str(log)]) == 0
    assert main([
        "ingest", str(log), "--mapping", str(GOLDEN / "map.conf"), "--out", str(dataset),
    ]) == 0
    outputs = {"dataset.csv": dataset.read_bytes()}
    for name, (command, *rest) in COMMANDS.items():
        argv = [command, str(dataset)] + rest
        for side, (owner, flag) in SIDE_FILES.items():
            if owner == name:
                argv += [flag, str(workdir / side)]
        stdout = workdir / ("stdout-" + name)
        with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            assert main(argv) == 0
        outputs[name] = stdout.read_bytes()
    for side in SIDE_FILES:
        outputs[side] = (workdir / side).read_bytes()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "name", ["dataset.csv"] + list(COMMANDS) + list(SIDE_FILES)
)
def test_output_matches_golden_bytes(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_mining_bytes_do_not_depend_on_the_hash_seed(tmp_path, name):
    # every command's output comes out the same whatever order a hash-seeded
    # set or dict hands out labels, values and conditions
    src = str(Path(behavrules.__file__).resolve().parents[1])
    command, *rest = COMMANDS[name]
    sides = [(s, f) for s, (owner, f) in SIDE_FILES.items() if owner == name]
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        argv = [command, str(GOLDEN / "dataset.csv"), *rest]
        for side, flag in sides:
            argv += [flag, str(tmp_path / side)]
        done = subprocess.run([sys.executable, "-m", "behavrules", *argv],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / name).read_bytes()
        for side, _ in sides:
            assert (tmp_path / side).read_bytes() == (GOLDEN / side).read_bytes()
