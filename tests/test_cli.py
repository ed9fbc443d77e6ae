"""CLI behaviour: subcommands, JSON output, exit codes, determinism."""
import hashlib
import json

import pytest

from octica.cli import main
from octica.parsing import ParseError, parse_poly


@pytest.fixture
def constraint_file(tmp_path):
    path = tmp_path / "quadruple.json"
    path.write_text(json.dumps({
        "degree": 8,
        "conditions": [{"kind": "multiplicity", "point": ["0", "0", "1"], "order": 4}],
    }))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "degree": 8, "nn_order": 3, "parameter": "t",
        "extra_conditions": [{"kind": "multiplicity", "point": ["1", "0", "0"], "order": 4}],
        "kernel_at": ["0", "1"],
        "witness_line": "y",
    }))
    return str(path)


def test_parse_poly_examples():
    assert str(parse_poly("x^3 + x*y^3")) == "x*y^3 + x^3"
    assert str(parse_poly("x^8")) == "x^8"
    with pytest.raises(ParseError) as err:
        parse_poly("x +* y")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("x + q")


def test_roundtrip_print_parse():
    texts = ["x^3 + x*y^3", "y*z - 2*x^2", "3*x^2*y - 1/2*z^3 + y^3"]
    for text in texts:
        canonical = str(parse_poly(text))
        assert str(parse_poly(canonical)) == canonical


def test_linsys_command(capsys, constraint_file):
    assert main(["linsys", "--constraints", constraint_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"degree": 8, "dim_forms": 35, "dim_projective": 34}


BASIS_FILES = {
    "quadruple": ({"degree": 8, "conditions": [
        {"kind": "multiplicity", "point": ["0", "0", "1"], "order": 4}]},
        "2c7b2acbb73732de8af0b3b81e1cab8ea4d19e16972731a4f6093654625f7c0b"),
    "mixed": ({"degree": 8, "conditions": [
        {"kind": "nn_point", "point": ["1", "2", "1"], "tangent": "x - y + z", "order": 3,
         "direction": "2/3"},
        {"kind": "multiplicity", "point": ["2", "-1", "3"], "order": 3},
        {"kind": "line_contact", "point": ["1", "1", "-1"], "line": "x - y", "order": 4}]},
        "03b74a6712ec9def812925ab1a95f100dc3eb4a353eaceab38004216b1beedf1"),
    "conic": ({"degree": 7, "conditions": [
        {"kind": "contains", "form": "y*z - x^2"},
        {"kind": "cone_direction", "point": ["1", "1", "1"], "tangent": "x - z",
         "multiplicity": 3, "power": 2}]},
        "cdf6d8b51b11bdea49bb237d435c6fa72846ff422a03b7466df4d36e94885269"),
}


@pytest.mark.parametrize("name", sorted(BASIS_FILES))
def test_linsys_basis_output_is_pinned(capsys, tmp_path, name):
    # sha256 of the full `linsys --basis` output: a change to the elimination
    # must leave every printed basis byte-identical
    data, digest = BASIS_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert main(["linsys", "--constraints", str(path), "--basis"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_classify_command(capsys):
    assert main(["classify", "--curve", "x^4+x^2*y^2+y^4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type"] == "X9"
    assert data["milnor"] == 9
    assert data["multiplicity"] == 4
    for key in ("table_mu", "branches"):
        assert data[key] is None or isinstance(data[key], int)
    assert data["point"] is None or isinstance(data["point"], list)
    assert data["distinguished_tangent"] is None or isinstance(data["distinguished_tangent"], str)


def test_classify_at_point(capsys):
    assert main(["classify", "--curve", "x*y*z", "--point", "0,0,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type"] == "A1"


def test_param_analyze_command(capsys, family_file, monkeypatch):
    # one elimination: the generic rank comes with the rank-drop locus
    import octica.paramfam
    monkeypatch.setattr(octica.paramfam, "generic_rank", lambda M: pytest.fail("rank computed twice"))
    assert main(["param-analyze", "--family", family_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generic_rank"] == 10
    assert data["rank_drop_locus"] == "t"
    at0, at1 = data["kernels"]
    assert (at0["special_dim"], at0["limit_dim"], at0["strict"]) == (24, 23, True)
    assert (at0["special_multiplicity"], at0["limit_multiplicity"]) == (1, 2)
    assert at1["special_dim"] == at1["limit_dim"] == 23


def test_param_analyze_rejects_a_plane_variable_as_parameter(capsys, tmp_path):
    # a parameter named like a plane variable would share its frame slot and
    # give wrong ranks; any other name gives the true answers
    family = {"kernel_at": ["0"],
              "extra_conditions": [{"kind": "multiplicity", "point": ["1", "0", "0"], "order": 4}]}
    path = tmp_path / "family.json"
    for name in "xyz":
        path.write_text(json.dumps(dict(family, parameter=name)))
        assert main(["param-analyze", "--family", str(path)]) == 1
        assert capsys.readouterr().err == ("error: malformed family file: "
                                           f"parameter '{name}' clashes with a plane variable\n")
    path.write_text(json.dumps(dict(family, parameter="u")))
    assert main(["param-analyze", "--family", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["generic_rank"], data["rank_drop_locus"]) == (10, "u")
    assert data["kernels"][0]["strict"]


@pytest.mark.parametrize("name", ["", "2", "x y", ["t"]])
def test_param_analyze_rejects_a_parameter_that_is_not_a_name(capsys, tmp_path, name):
    # "" and "2" would print wrong loci ("1", "2"); a list is not a JSON string
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"parameter": name, "kernel_at": ["0"]}))
    assert main(["param-analyze", "--family", str(path)]) == 1
    assert capsys.readouterr().err == ("error: malformed family file: "
                                       f"parameter {name!r} is not a name\n")


@pytest.mark.parametrize("family", [{"witness_line": "x^2"},
                                    {"witness_line": "x^2", "kernel_at": ["0", "1"]},
                                    {"witness_line": "0", "kernel_at": ["0"]}])
def test_param_analyze_rejects_a_malformed_witness_line_before_any_rank(capsys, tmp_path,
                                                                        monkeypatch, family):
    # the line is read with the other family fields: with or without
    # kernel values, and before any rank is computed
    import octica.paramfam
    monkeypatch.setattr(octica.paramfam, "generic_rank", lambda M: pytest.fail("rank computed"))
    monkeypatch.setattr(octica.paramfam, "rank_drop_locus", lambda M: pytest.fail("rank computed"))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert main(["param-analyze", "--family", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: form {family['witness_line']!r} "
                                       "is not homogeneous of degree 1\n")


def test_param_analyze_without_conditions_keeps_the_whole_family(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kernel_at": ["0"]}))
    assert main(["param-analyze", "--family", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["family_size"], data["rows"], data["cols"], data["generic_rank"]) == (33, 0, 33, 0)
    at0, = data["kernels"]
    assert (at0["special_dim"], at0["limit_dim"], at0["strict"]) == (33, 33, False)


def test_param_analyze_of_a_zero_matrix_has_rank_zero_and_no_locus(capsys, tmp_path):
    # the family's [3;3]-point already makes (0:0:1) a double point, so the
    # extra condition gives three zero rows
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kernel_at": ["0"], "extra_conditions": [
        {"kind": "multiplicity", "point": ["0", "0", "1"], "order": 2}]}))
    assert main(["param-analyze", "--family", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["rows"], data["generic_rank"]) == (3, 0)
    assert "rank_drop_locus" not in data and "minor_gcd" not in data


def test_catalog_json(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["totals"]["strata"] == 47
    assert data["totals"]["components"] == 78
    inhabited = [s for s in data["strata"] if not s["empty"]]
    assert len(inhabited) == 78
    for row in data["strata"]:
        assert {"label", "id", "counts", "component", "dimension", "birational_type",
                "empty"} <= set(row)
        assert isinstance(row["empty"], bool) and isinstance(row["dimension"], int)


def test_diagram_command(tmp_path, capsys):
    out = tmp_path / "fig.dot"
    assert main(["diagram", "--scope", "simply-elliptic", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("->") == 29
    assert text.startswith("digraph")


# sha256 of the full output of the catalogue, diagram and verify commands,
# recorded before witness labels, diagram nodes and inhabited labels were read
# off the label rules; a change to how the catalogue is written down must
# leave every output byte-identical
CATALOGUE_OUTPUTS = {
    "catalog": ("catalog --format json",
                "138f9efccd272909c74147c6a6a5db80bda0dda9e3decd7beb1b9ceda9e66a84"),
    "catalog-witnesses": ("catalog --witnesses --format json",
                          "ee2f51b93524798d333dd7caa9ddfc58ad43ada608ab75e340927077ead4795f"),
    "diagram-simply-elliptic": ("diagram --scope simply-elliptic",
                                "0c4bbcec0a33a958b3a31b534140b2cfe17d01e1c57dc8723076be95639c2849"),
    "diagram-full-rules": ("diagram --scope full-rules",
                           "534ab5a9d55baa4baae3069d48a8458d650ac57ad8875a60134c9c9788a02c1f"),
    "verify": ("verify", "a9a74e451c446837420bc861d0d24477fd83bc7dfce8d0a3851c95cd6a5f4fa1"),
}


@pytest.mark.parametrize("name", sorted(CATALOGUE_OUTPUTS))
def test_catalogue_outputs_are_pinned(capsys, name):
    command, digest = CATALOGUE_OUTPUTS[name]
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_outputs_deterministic(capsys, constraint_file):
    main(["linsys", "--constraints", constraint_file, "--basis"])
    first = capsys.readouterr().out
    main(["linsys", "--constraints", constraint_file, "--basis"])
    second = capsys.readouterr().out
    assert first == second

    main(["catalog", "--format", "json"])
    a = capsys.readouterr().out
    main(["catalog", "--format", "json"])
    b = capsys.readouterr().out
    assert a == b


def test_classify_ignores_the_seed(capsys):
    # the classifier draws nothing at random, so --seed cannot change it
    outputs = []
    for seed in ("1", "2"):
        assert main(["--seed", seed, "classify", "--curve", "x^4 + x^2*y^2 + y^6"]) == 0
        assert main(["--seed", seed, "classify", "--curve", "x*y*z*(x + 2*y + 3*z)", "--point", "0,0,1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"type": "X11"' in outputs[0] and '"type": "A1"' in outputs[0]


def test_catalog_witnesses_use_the_library_seed(monkeypatch):
    # without --seed, `catalog --witnesses` builds the octics `build_witness`
    # returns by default, at WITNESS_SEED; an explicit seed is passed through
    import inspect
    from types import SimpleNamespace

    from octica import witnesses

    signature = inspect.signature(witnesses.build_witness)
    seeds = []

    def fake_build_witness(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seeds.append(bound.arguments["seed"])
        return SimpleNamespace(curve=SimpleNamespace(poly="x^8"))

    monkeypatch.setattr(witnesses, "build_witness", fake_build_witness)
    monkeypatch.delenv("OCTICA_SEED", raising=False)
    runs = [([], witnesses.WITNESS_SEED), (["--seed", "5"], 5)]
    for options, want in runs:
        seeds.clear()
        assert main(options + ["catalog", "--witnesses", "--format", "json"]) == 0
        assert seeds and set(seeds) == {want}
    monkeypatch.setenv("OCTICA_SEED", "7")
    seeds.clear()
    assert main(["catalog", "--witnesses", "--format", "json"]) == 0
    assert seeds and set(seeds) == {7}


def test_user_errors_exit_1(capsys, monkeypatch, tmp_path, constraint_file):
    assert main(["classify", "--curve", "x +* y"]) == 1
    err = capsys.readouterr().err
    assert "position" in err

    assert main(["--json-errors", "classify", "--curve", "x + q"]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "user"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["linsys", "--constraints", str(bad)]) == 1

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"degree": 8, "conditions": [{"kind": "mystery"}]}))
    assert main(["linsys", "--constraints", str(malformed)]) == 1

    # out-of-range degrees and a containment above the system's degree
    capsys.readouterr()
    assert main(["linsys", "--constraints", constraint_file, "--degree", "13"]) == 1
    assert capsys.readouterr().err == "error: degree out of supported range\n"
    too_big = tmp_path / "too_big.json"
    too_big.write_text(json.dumps({"degree": 2, "conditions": [{"kind": "contains", "form": "x^3+y^3"}]}))
    assert main(["linsys", "--constraints", str(too_big)]) == 1
    assert capsys.readouterr().err == "error: containment divisor exceeds the ambient degree\n"

    # a hint point that is no projective point is invalid input, not a verdict
    assert main(["profile", "--curve", "x*y*z", "--point", "0,0,0"]) == 1
    assert capsys.readouterr().err == "error: not a projective point: (0, 0, 0)\n"

    # a negative degree has no forms to speak of
    assert main(["linsys", "--constraints", constraint_file, "--degree", "-3"]) == 1
    assert capsys.readouterr().err == "error: degree out of supported range\n"

    # malformed files, in either format
    quadruple = {"kind": "multiplicity", "point": ["1", "0", "0"], "order": 4}
    cases = [
        ("linsys", {"degree": "abc", "conditions": []}),
        ("linsys", {"degree": 8, "conditions": 5}),
        ("linsys", {"degree": 8, "conditions": [dict(quadruple, order="x")]}),
        ("linsys", []),
        ("param-analyze", []),
        ("param-analyze", {"degree": "abc"}),
        ("param-analyze", {"extra_conditions": 3}),
        ("param-analyze", {"extra_conditions": [dict(quadruple, order="x")]}),
        ("param-analyze", {"extra_conditions": [{"kind": "contains", "form": "x^9"}]}),
        ("param-analyze", {"kernel_at": 5}),
        # integer fields take integers only
        ("linsys", {"degree": 8.9, "conditions": []}),
        ("linsys", {"degree": 8, "conditions": [dict(quadruple, order=4.7)]}),
        ("linsys", {"degree": 8, "conditions": [dict(quadruple, order=True)]}),
        ("linsys", {"degree": 8, "conditions": [dict(quadruple, order="4.7")]}),
        ("param-analyze", {"nn_order": True}),
        ("param-analyze", {"degree": 8.0}),
    ]
    for command, data in cases:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        option = "--constraints" if command == "linsys" else "--family"
        assert main([command, option, str(path)]) == 1, (command, data)
        assert capsys.readouterr().err.startswith("error: "), (command, data)

    # a seed variable that is no integer, in either error format
    for value in ("abc", "1.5"):
        monkeypatch.setenv("OCTICA_SEED", value)
        assert main(["classify", "--curve", "x*y"]) == 1
        assert capsys.readouterr().err == f"error: not an integer: {value!r}\n"
        assert main(["--json-errors", "classify", "--curve", "x*y"]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "user",
                                                       "message": f"not an integer: {value!r}"}


def test_integer_fields_accept_integer_strings(capsys, tmp_path):
    path = tmp_path / "strings.json"
    path.write_text(json.dumps({"degree": "8", "conditions": [
        {"kind": "multiplicity", "point": ["0", "0", "1"], "order": "4"}]}))
    assert main(["linsys", "--constraints", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["dim_forms"] == 35


@pytest.mark.parametrize("family, message", [
    ({"degree": -2}, "degree out of supported range"),
    ({"degree": 13}, "degree out of supported range"),
    ({"nn_order": 0}, "infinitely-near condition needs n >= 2"),
    ({"nn_order": 1}, "infinitely-near condition needs n >= 2"),
])
def test_param_analyze_checks_family_ranges(capsys, tmp_path, family, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert main(["param-analyze", "--family", str(path)]) == 1
    assert capsys.readouterr().err == f"error: malformed family file: {message}\n"


def test_profile_issues_print_projective_points(capsys):
    assert main(["profile", "--curve", "x^5+y^5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["issues"] == ["inadmissible singularity at (0:0:1): NotHLC(multiplicity 5 exceeds 4)"]


@pytest.mark.parametrize("args, message", [
    (["--curve", "x^2 + y^2 + 1"], "germ does not pass through the origin"),
    (["--curve", "0"], "zero germ"),
    (["--curve", "0", "--point", "0,0,1"], "zero germ"),
    (["--curve", "x*y*z", "--point", "1,1,1"], "point (1:1:1) does not lie on the curve"),
    (["--curve", "x*y*z", "--point", "2,4,-6"], "point (1:2:-3) does not lie on the curve"),
    (["--curve", "x*y*z", "--point", "0,0,0"], "not a projective point: (0, 0, 0)"),
], ids=["off-origin", "zero", "zero-at-point", "off-curve", "off-curve-normalised", "zero-vector"])
def test_classify_rejects_germs_off_the_origin(capsys, args, message):
    # invalid input, caught before the classifier runs (exit 1)
    assert main(["classify"] + args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["--json-errors", "classify"] + args) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "user", "message": message}


@pytest.mark.parametrize("curve", ["0", "1", "-3/4"])
def test_profile_rejects_curves_of_no_positive_degree(capsys, curve):
    assert main(["profile", "--curve=" + curve]) == 1
    assert capsys.readouterr().err == "error: profile needs a curve of positive degree\n"


@pytest.mark.parametrize("curve", ["x^\u00b2", "x^\u0663+y^2", "\uff11*x^2+y^3"],
                         ids=["superscript", "arabic-indic", "fullwidth"])
def test_parser_reads_ascii_digits_only(capsys, curve):
    with pytest.raises(ParseError) as err:
        parse_poly(curve)
    assert "unexpected character" in str(err.value)
    assert main(["classify", "--curve", curve]) == 1
    assert "position" in capsys.readouterr().err


def test_deep_nesting_is_a_parse_error(capsys):
    parens = "(" * 250 + "x^2+y^3" + ")" * 250
    signs = "-" * 1500 + "x^2+y^3"
    for text in (parens, signs):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_poly(text)
        assert main(["classify", "--curve=" + text]) == 1
        assert "nested too deeply at position" in capsys.readouterr().err
    # nesting up to the limit, and long flat sums, still parse
    assert str(parse_poly("(" * 100 + "x" + ")" * 100)) == "x"
    assert str(parse_poly("-" * 101 + "x")) == "-x"
    assert str(parse_poly("+".join(["x*y"] * 20000))) == "20000*x*y"


def test_verify_single_lemma(capsys):
    assert main(["verify", "--lemma", "degree-bounds"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree-bounds"]["passed"]
    assert main(["verify", "--lemma", "no-such-lemma"]) == 1


def test_degenerate_flag_is_direction_zero(capsys, tmp_path):
    nn = {"kind": "nn_point", "point": ["1", "2", "1"], "tangent": "x - y + z", "order": 3}
    outputs = []
    for extra in ({}, {"degenerate": True}, {"direction": "0"}, {"degenerate": True, "direction": "0"}):
        path = tmp_path / "nn.json"
        path.write_text(json.dumps({"degree": 7, "conditions": [dict(nn, **extra)]}))
        assert main(["linsys", "--constraints", str(path), "--basis"]) == 0
        outputs.append(capsys.readouterr().out)
    plain, flag, direction, both = outputs
    assert flag == direction == both
    assert json.loads(flag)["dim_forms"] == json.loads(plain)["dim_forms"] - 2
