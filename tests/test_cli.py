import json
import os

import pytest

from gitpol.cli import main

SPEC_21P2 = {"schema": "1", "ambient_dim": 2,
           "left": [{"twist": -2, "mult": 2}, {"twist": -1, "mult": 1}],
           "right": [{"twist": 0, "mult": 3}]}
SPEC_22P3 = {"schema": "1", "ambient_dim": 3,
           "left": [{"twist": -2, "mult": 1}, {"twist": -1, "mult": 1}],
           "right": [{"twist": 0, "mult": 1}, {"twist": 1, "mult": 3}]}
POL_21P2 = {"schema": "1", "lambda": ["1/6", "2/3"], "mu": ["1/3"]}
MORPH_21 = {"schema": "1", "blocks": [[
    [["0", "0"], ["0", "0"], ["x0^2", "x1^2"]],
    [["x0"], ["x1"], ["0"]]]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (("spec21", SPEC_21P2), ("spec22", SPEC_22P3),
                          ("pol21", POL_21P2), ("morph21", MORPH_21)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def run(args, out_path):
    code = main(args + ["--out", str(out_path)])
    return code, out_path.read_text() if out_path.exists() else None


def test_dim_subcommand(files):
    code, text = run(["dim", "--spec", files["spec21"]], files["tmp"] / "dim.json")
    assert code == 0
    assert json.loads(text)["expected_dimension"] == 26
    code, text = run(["dim", "--spec", files["spec22"]], files["tmp"] / "dim22.json")
    assert json.loads(text)["expected_dimension"] == 77


def test_certify_subcommand(files):
    code, text = run(["certify", "--spec", files["spec21"], "--pol", files["pol21"]],
                     files["tmp"] / "cert.json")
    assert code == 0
    assert json.loads(text)["status"] == "GOOD_PROJECTIVE_QUOTIENT"


def test_chambers_subcommand_and_csv(files):
    csv_path = files["tmp"] / "walls.csv"
    code, text = run(["chambers", "--spec", files["spec21"], "--window", "0,1",
                      "--csv", str(csv_path)], files["tmp"] / "ch.json")
    assert code == 0
    data = json.loads(text)
    assert data["walls"] == ["1/3", "2/3"]
    assert data["stability_notions"] == 5
    assert csv_path.read_text().startswith("a,b,c")


def test_stability_subcommand_witness(files):
    code, text = run(["stability", "--spec", files["spec21"], "--pol", files["pol21"],
                      "--morphism", files["morph21"], "--budget", "300"],
                     files["tmp"] / "st.json")
    assert code == 0
    data = json.loads(text)
    assert data["status"] == "NOT_STABLE"
    assert data["witness"]["delta"] == "0"


def test_embed_subcommand(files):
    code, text = run(["embed", "--spec", files["spec21"],
                      "--morphism", files["morph21"], "--check", "zmember"],
                     files["tmp"] / "z.json")
    assert code == 0
    assert json.loads(text)["status"] == "in_Z"
    code, text = run(["embed", "--spec", files["spec21"], "--check", "injectivity"],
                     files["tmp"] / "inj.json")
    assert json.loads(text)["gamma_injective"] is True


def test_region_subcommand_with_svg(files):
    svg = files["tmp"] / "region.svg"
    csv = files["tmp"] / "region.csv"
    code, text = run(["region", "--spec", files["spec22"],
                      "--params", "m2lambda2,n1mu1", "--svg", str(svg),
                      "--csv", str(csv)], files["tmp"] / "region.json")
    assert code == 0
    data = json.loads(text)
    assert data["empty"] is False
    assert ["4/5", "4/7"] in data["vertices"]
    assert svg.read_text().startswith("<svg")
    assert csv.read_text().startswith("x,y")


def test_constants_subcommand(files):
    code, text = run(["constants", "--spec", files["spec21"]],
                     files["tmp"] / "const.json")
    assert code == 0
    data = json.loads(text)
    assert data["left"][0]["value"] == "0"


def test_fine_moduli_subcommand(files):
    code, text = run(["fine-moduli", "--n", "2", "--k", "7"],
                     files["tmp"] / "fm.json")
    assert code == 0
    data = json.loads(text)
    assert data["q_body"] == 2 and data["dimension"] == 16
    assert data["critical_ts"] == [{"p": 6, "t": "5/12"}]


def test_fine_moduli_build_datum(files):
    datum = {"schema": "1", "n": 2, "z1": "x0", "z2": "x1",
             "cubics": ["x0^3", "x0x1^2", "x0x2^2", "x1^3", "x1x2^2",
                        "x1x0^2", "x1x0x2"]}
    p = files["tmp"] / "datum.json"
    p.write_text(json.dumps(datum))
    code, text = run(["fine-moduli", "--datum", str(p)], files["tmp"] / "built.json")
    assert code == 0
    data = json.loads(text)
    assert data["classification"] == "generic"
    assert data["gcd_constant"] is True


def test_byte_identical_reruns(files):
    out1 = files["tmp"] / "a.json"
    out2 = files["tmp"] / "b.json"
    args = ["stability", "--spec", files["spec21"], "--pol", files["pol21"],
            "--morphism", files["morph21"], "--seed", "7", "--budget", "250"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_schema_error_exit_code(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text(json.dumps({"schema": "1", "ambient_dim": 2,
                               "left": [{"twist": -1, "mult": 1}],
                               "right": [{"twist": -1, "mult": 1}]}))
    assert main(["dim", "--spec", str(bad)]) == 2
    missing = files["tmp"] / "missing.json"
    assert main(["dim", "--spec", str(missing)]) == 2


def test_malformed_polynomial_reports_location(files, capsys):
    morph = dict(MORPH_21)
    morph["blocks"] = [[[["0", "0"], ["0", "##"], ["x0^2", "x1^2"]],
                       [["x0"], ["x1"], ["0"]]]]
    p = files["tmp"] / "badmorph.json"
    p.write_text(json.dumps(morph))
    code = main(["stability", "--spec", files["spec21"], "--pol", files["pol21"],
                 "--morphism", str(p)])
    assert code == 2


def _assert_input_error(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "Traceback" not in err


def test_non_integer_ambient_dim_is_an_input_error(files, capsys):
    bad = files["tmp"] / "bad_dim.json"
    bad.write_text(json.dumps(dict(SPEC_21P2, ambient_dim="x")))
    _assert_input_error(["dim", "--spec", str(bad)], capsys)


def test_non_rational_weight_is_an_input_error(files, capsys):
    for lam in (["abc", "2/3"], ["1/0", "2/3"]):
        bad = files["tmp"] / "bad_pol.json"
        bad.write_text(json.dumps(dict(POL_21P2, **{"lambda": lam})))
        _assert_input_error(["certify", "--spec", files["spec21"], "--pol", str(bad)],
                            capsys)


def test_malformed_window_is_an_input_error(files, capsys):
    for window in ("a", "0", "0,1;2", "0,1/0"):
        _assert_input_error(["chambers", "--spec", files["spec21"], "--window", window],
                            capsys)


def test_spec_integers_are_parsed_strictly(files, capsys):
    for field, value in (("mult", 2.7), ("mult", True), ("twist", "-2.0"), ("mult", "2x")):
        left = [dict(SPEC_21P2["left"][0], **{field: value}), SPEC_21P2["left"][1]]
        bad = files["tmp"] / "bad_int.json"
        bad.write_text(json.dumps(dict(SPEC_21P2, left=left)))
        _assert_input_error(["dim", "--spec", str(bad)], capsys)
    # integers written as strings, optionally signed, are still accepted
    ok = files["tmp"] / "str_int.json"
    ok.write_text(json.dumps(dict(SPEC_21P2, ambient_dim="+2",
                                  left=[{"twist": "-2", "mult": "2"}, SPEC_21P2["left"][1]])))
    code, text = run(["dim", "--spec", str(ok)], files["tmp"] / "dim_str.json")
    assert code == 0
    assert json.loads(text)["expected_dimension"] == 26


def test_boolean_weight_is_an_input_error(files, capsys):
    bad = files["tmp"] / "bool_pol.json"
    bad.write_text(json.dumps(dict(POL_21P2, **{"lambda": [True, "2/3"]})))
    _assert_input_error(["certify", "--spec", files["spec21"], "--pol", str(bad)], capsys)


def test_unnormalized_or_misshapen_polarization_is_an_input_error(files, capsys):
    # sum mu_l n_l = 3/2; one weight too few; one weight too many
    for lam, mu in ((["1/6", "2/3"], ["1/2"]), (["1/2"], ["1/3"]),
                    (["1/6", "2/3"], ["1/3", "0"])):
        bad = files["tmp"] / "bad_norm.json"
        bad.write_text(json.dumps(dict(POL_21P2, **{"lambda": lam, "mu": mu})))
        for cmd in (["certify"], ["stability", "--morphism", files["morph21"]]):
            _assert_input_error(cmd + ["--spec", files["spec21"], "--pol", str(bad)], capsys)


def test_negative_budget_is_an_input_error(files, capsys):
    _assert_input_error(["stability", "--spec", files["spec21"], "--pol", files["pol21"],
                         "--morphism", files["morph21"], "--budget", "-3"], capsys)


def test_unread_flags_are_not_accepted(files, capsys):
    for args in (["chambers", "--spec", files["spec21"], "--jobs", "2"],
                 ["dim", "--spec", files["spec21"], "--format", "json"],
                 ["dim", "--spec", files["spec21"], "--seed", "1"],
                 ["certify", "--spec", files["spec21"], "--pol", files["pol21"],
                  "--budget", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
