"""Input boundaries: schema versions, search budgets and `python -m gitpol`."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gitpol.cli import main
from gitpol.polarization import Polarization
from gitpol.setting import (MorphismElement, ProblemSpec, SchemaError,
                            build_line_bundle_system, random_morphism)
from gitpol.stability import destabilizer_search
from test_acceptance import SPEC_22P3
from test_cli import MORPH_21, POL_21P2, SPEC_21P2

ROOT = Path(__file__).resolve().parents[1]
BAD_VERSIONS = ("99", "2", "", 1, None)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (("spec", SPEC_21P2), ("pol", POL_21P2), ("morph", MORPH_21)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def _assert_input_error(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("version", BAD_VERSIONS)
def test_unknown_schema_version_is_rejected_by_the_loaders(version):
    sysm = build_line_bundle_system(ProblemSpec.from_json(SPEC_21P2))
    with pytest.raises(SchemaError):
        ProblemSpec.from_json(dict(SPEC_21P2, schema=version))
    with pytest.raises(SchemaError):
        Polarization.from_json(dict(POL_21P2, schema=version))
    with pytest.raises(SchemaError):
        MorphismElement.from_json(sysm, dict(MORPH_21, schema=version))


def test_missing_schema_version_reads_as_version_one():
    bare = {k: v for k, v in SPEC_21P2.items() if k != "schema"}
    assert ProblemSpec.from_json(bare) == ProblemSpec.from_json(SPEC_21P2)
    assert Polarization.from_json({"lambda": ["1/6", "2/3"], "mu": ["1/3"]}).mu == (F(1, 3),)


@pytest.mark.parametrize("which", ["spec", "pol", "morph"])
def test_unknown_schema_version_is_an_input_error(which, files, tmp_path, capsys):
    payload = {"spec": SPEC_21P2, "pol": POL_21P2, "morph": MORPH_21}[which]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(payload, schema="99")))
    paths = dict(files, **{which: str(bad)})
    _assert_input_error(["stability", "--spec", paths["spec"], "--pol", paths["pol"],
                         "--morphism", paths["morph"]], capsys)
    if which == "spec":
        _assert_input_error(["dim", "--spec", paths["spec"]], capsys)


def test_exhaustive_search_honours_the_budget():
    sysm = build_line_bundle_system(SPEC_22P3)
    pol = Polarization.make((F(1, 2), F(1, 2)), (F(1, 2), F(1, 6)), sysm.m, sysm.n)
    for seed in range(6):
        w = random_morphism(sysm, seed)
        for budget in (0, 1, 2, 3, 200):
            verdict = destabilizer_search(w, pol, budget=budget, seed=seed)
            assert verdict.gred_exact
            assert verdict.budget_used <= max(budget, 1)
            if verdict.budget_used < max(budget, 1):
                assert not verdict.budget_exhausted


SPEC_SAMPLED = {"schema": "1", "ambient_dim": 2,
                "left": [{"twist": -3, "mult": 1}, {"twist": -1, "mult": 2}],
                "right": [{"twist": 0, "mult": 2}]}


@pytest.mark.parametrize("spec", [SPEC_21P2, SPEC_SAMPLED], ids=["closed-form", "sampled"])
def test_negative_trial_count_is_an_input_error(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(["constants", "--spec", str(path), "--trials", "-5"], capsys)


def test_python_dash_m_runs_the_cli(files):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "gitpol", "dim", "--spec", files["spec"]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["expected_dimension"] == 26


DATUM = {"schema": "1", "n": 2, "z1": "x0", "z2": "x1",
         "cubics": ["x0^3", "x0x1^2", "x0x2^2", "x1^3", "x1x2^2", "x1x0^2", "x1x0x2"]}


@pytest.mark.parametrize("change", [
    {"z1": "x0+("},                 # bad polynomial syntax
    {"z1": "x9"},                   # variable out of range for n = 2
    {"cubics": ["x0^3/0"]},         # division by zero
    {"schema": "99"},
    {"n": 2.5},                     # not truncated to 2
    {"n": True},
    {"n": "two"},
])
def test_bad_fine_moduli_datum_is_an_input_error(change, tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(dict(DATUM, **change)))
    _assert_input_error(["fine-moduli", "--datum", str(path)], capsys)


def test_fine_moduli_datum_reads_a_string_n(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(dict(DATUM, n="2")))
    assert main(["fine-moduli", "--datum", str(path), "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("grow", ["extra-row", "extra-column"])
def test_extra_blocks_in_a_morphism_file_are_an_input_error(grow, files, tmp_path, capsys):
    blocks = [list(row) for row in MORPH_21["blocks"]]
    if grow == "extra-row":
        blocks.append(list(blocks[0]))
    else:
        blocks[0].append(blocks[0][0])
    sysm = build_line_bundle_system(ProblemSpec.from_json(SPEC_21P2))
    with pytest.raises(SchemaError):
        MorphismElement.from_json(sysm, dict(MORPH_21, blocks=blocks))
    bad = tmp_path / "morph-bad.json"
    bad.write_text(json.dumps(dict(MORPH_21, blocks=blocks)))
    _assert_input_error(["stability", "--spec", files["spec"], "--pol", files["pol"],
                         "--morphism", str(bad)], capsys)
    _assert_input_error(["embed", "--spec", files["spec"], "--check", "zmember",
                         "--morphism", str(bad)], capsys)
