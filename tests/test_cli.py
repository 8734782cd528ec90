"""CLI surface: exit codes, JSON round trips, determinism, parallel merge."""

import json
import multiprocessing
import time

import pytest

from bqt import cli, schedule
from bqt.cli import main, parse_shape
from bqt.errors import ExactDivisionError
from bqt.keyed import KeyedRealization
from bqt.polyrep import PolyRealization


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_shape():
    assert parse_shape("2,1") == (2, 1)
    assert parse_shape("") == ()
    assert parse_shape("0") == ()
    with pytest.raises(ValueError):
        parse_shape("1,2")
    with pytest.raises(ValueError):
        parse_shape("x")


def test_check_daha_poly_passes(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys,
        "check", "daha", "--module", "poly", "--n", "2", "--dmax", "2",
        "--jobs", "1", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert len(doc["reports"]) == 11
    assert "PASS" in err


def test_check_invalid_shape_exits_2(capsys):
    code, _, err = run(
        capsys,
        "check", "daha", "--module", "murnaghan", "--shape", "1,2", "--n", "3",
        "--dmax", "1", "--jobs", "1",
    )
    assert code == 2
    assert "error" in err


def test_check_sign_flip_fails(capsys):
    code, _, _ = run(
        capsys,
        "check", "daha", "--module", "poly", "--n", "2", "--dmax", "1",
        "--demazure", "q-1", "--jobs", "1",
    )
    assert code == 1


def test_check_daha_murnaghan(capsys):
    code, _, _ = run(
        capsys,
        "check", "daha", "--module", "murnaghan", "--shape", "1", "--n", "3",
        "--dmax", "2", "--jobs", "1",
    )
    assert code == 0


def test_check_bqt_poly(capsys):
    code, out, _ = run(
        capsys,
        "check", "bqt", "--module", "poly", "--n", "3", "--kmax", "3", "--dmax", "3",
        "--jobs", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    flavors = {r.get("flavor") for r in doc["reports"]}
    assert {0, 1, 2, 3} <= flavors


def test_check_compat(capsys):
    code, out, _ = run(
        capsys,
        "check", "compat", "--module", "murnaghan", "--shape", "1", "--n", "3",
        "--dmax", "1", "--jobs", "1",
    )
    assert code == 0
    doc = json.loads(out)
    ids = {r["relation_id"] for r in doc["reports"]}
    assert "precompat_kappa_pi" in ids


def test_reports_are_reproducible(capsys, tmp_path):
    args = [
        "check", "aux", "--module", "poly", "--n", "2", "--dmax", "2",
        "--jobs", "1", "--no-timing",
    ]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(f1))[0] == 0
    assert run(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_parallel_jobs_match_sequential(capsys, tmp_path):
    for base in (
        ["check", "daha", "--module", "poly", "--n", "2", "--dmax", "1"],
        ["check", "daha", "--module", "murnaghan", "--shape", "1,1", "--n", "3", "--dmax", "1"],
        ["check", "bqt", "--module", "poly", "--n", "3", "--kmax", "2", "--dmax", "2"],
    ):
        f1, f2 = tmp_path / "seq.json", tmp_path / "par.json"
        assert run(capsys, *base, "--no-timing", "--jobs", "1", "--out", str(f1))[0] == 0
        assert run(capsys, *base, "--no-timing", "--jobs", "2", "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()
    # every worker was joined, and no module keeps a realization for them
    assert multiprocessing.active_children() == []
    assert not any(
        isinstance(value, KeyedRealization) for mod in (cli, schedule) for value in vars(mod).values()
    )


def test_probabilistic_mode(capsys):
    code, out, _ = run(
        capsys,
        "check", "daha", "--module", "poly", "--n", "2", "--dmax", "1",
        "--probabilistic", "--seed", "3", "--jobs", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "probabilistic"
    assert all(r["mode"] == "probabilistic" for r in doc["reports"])


def test_probabilistic_aux_on_murnaghan_runs_the_exact_relation_ids(capsys):
    base = ["check", "aux", "--module", "murnaghan", "--shape", "1", "--n", "3",
            "--dmax", "1", "--jobs", "1"]
    docs = []
    for extra in ([], ["--probabilistic"]):
        code, out, _ = run(capsys, *base, *extra)
        assert code == 0
        docs.append(json.loads(out))
    exact, probabilistic = ([r["relation_id"] for r in d["reports"]] for d in docs)
    assert len(exact) == 15 and exact[-1] == "aux_theta_eigen"
    assert probabilistic == exact
    assert all(r["mode"] == "probabilistic" for r in docs[1]["reports"])


def test_act_daha_word(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"rank": 2, "entries": [{"exponents": [0, 0], "coeff": "1"}]}))
    code, out, _ = run(
        capsys,
        "act", "--module", "poly", "--n", "2",
        "--word", '[["X",1]]', "--in", str(vec),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [{"exponents": [1, 0], "coeff": "1"}]


def test_act_flavored_word(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(
        json.dumps(
            {
                "flavor": 0,
                "vector": {"rank": 2, "entries": [{"exponents": [0, 0], "coeff": "1"}]},
            }
        )
    )
    code, out, _ = run(
        capsys,
        "act", "--module", "poly", "--n", "2",
        "--word", '[["dplus"]]', "--in", str(vec),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == 1
    assert doc["vector"]["entries"] == [{"exponents": [1, 0], "coeff": "1"}]


def test_act_dminus_example(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(
        json.dumps(
            {
                "flavor": 1,
                "vector": {"rank": 2, "entries": [{"exponents": [1, 0], "coeff": "1"}]},
            }
        )
    )
    code, out, _ = run(
        capsys,
        "act", "--module", "poly", "--n", "2",
        "--word", '[["dminus"]]', "--in", str(vec),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == 0
    assert doc["vector"]["entries"] == [
        {"exponents": [1, 0], "coeff": "q - 1"},
        {"exponents": [0, 1], "coeff": "q - 1"},
    ]


def test_limit_table_and_dims(capsys, tmp_path):
    out = tmp_path / "table.json"
    code, _, _ = run(
        capsys,
        "limit", "--seq", "pol", "--kmax", "1", "--dmax", "3", "--out", str(out),
    )
    assert code == 0
    table = json.loads(out.read_text())
    k0 = [c["dim"] for c in table["cells"] if c["k"] == 0]
    assert k0 == [1, 1, 2, 3]
    code, text, _ = run(capsys, "dims", "--seq", "pol", "--kmax", "1", "--dmax", "3")
    assert code == 0
    assert "k\\d" in text


def test_limit_murnaghan_shape(capsys, tmp_path):
    out = tmp_path / "table.json"
    code, _, _ = run(
        capsys,
        "limit", "--seq", "mur", "--shape", "1", "--kmax", "1", "--dmax", "2",
        "--out", str(out),
    )
    assert code == 0
    table = json.loads(out.read_text())
    assert table["sequence"] == "murnaghan"


def test_limit_and_dims_exit_1_on_unresolved_cells(capsys):
    for command in ("limit", "dims"):
        code, _, err = run(
            capsys, command, "--seq", "pol", "--kmax", "1", "--dmax", "3", "--ncap", "2"
        )
        assert code == 1
        assert "warning: 4 unresolved cells" in err


POLY2 = {"rank": 2, "entries": [{"exponents": [0, 0], "coeff": "1"}]}


@pytest.mark.parametrize(
    "module_args, payload",
    [
        (["--module", "poly", "--n", "3"], POLY2),
        (["--module", "poly", "--n", "3"], {"flavor": 0, "vector": POLY2}),
        (
            ["--module", "murnaghan", "--shape", "2", "--n", "4"],
            {"rank": 4, "shape": [1], "entries": []},
        ),
    ],
    ids=["poly_rank", "flavored_poly_rank", "murnaghan_shape"],
)
def test_act_rejects_vector_of_another_module(capsys, tmp_path, module_args, payload):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps(payload))
    word = '[["dplus"]]' if "flavor" in payload else '[["X",1]]'
    code, out, err = run(capsys, "act", *module_args, "--word", word, "--in", str(vec))
    assert code == 2
    assert out == ""
    assert "error: vector of space" in err


CHECK_POLY2 = ["--module", "poly", "--n", "2"]


@pytest.mark.parametrize("text", ["q^99999999", "q^1000000", "(1 + q + t)^101"])
def test_a_power_past_the_size_limit_exits_2_within_a_second(capsys, tmp_path, text):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps(POLY2))
    start = time.perf_counter()
    code, out, err = run(capsys, "act", *CHECK_POLY2, "--word", json.dumps([["Scalar", text]]),
                         "--in", str(vec))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: power ^") and "passes the size limit" in err
    assert "Traceback" not in err


# scalar text the parser rejects, and the message of each error branch
BAD_SCALAR_TEXT = {
    "(q 1)": "unbalanced parenthesis",
    "q)": "trailing input",
    "q^t": "exponent must be a nonnegative integer",
    "*q": "unexpected token",
}


@pytest.mark.parametrize(
    "word, payload, argv",
    [
        ('[["T"]]', POLY2, None),
        ("[1]", POLY2, None),
        ('[["X","1"]]', POLY2, None),
        ('[["z"]]', {"flavor": 0, "vector": POLY2}, None),
        ('[["X",1]]', {"rank": 2}, None),
        ('[["X",1]]', {"flavor": None, "vector": POLY2}, None),
        *((json.dumps([["Scalar", text]]), POLY2, None) for text in BAD_SCALAR_TEXT),
        (None, None, ["check", "daha", *CHECK_POLY2, "--dmax", "-1"]),
        (None, None, ["check", "daha", *CHECK_POLY2, "--jobs", "-3"]),
        (None, None, ["check", "bqt", *CHECK_POLY2, "--kmax", "-1"]),
        (None, None, ["check", "bqt", *CHECK_POLY2, "--dmax", "-2"]),
        (None, None, ["limit", "--kmax", "-1"]),
        (None, None, ["limit", "--dmax", "-1"]),
        (None, None, ["dims", "--kmax", "-1"]),
        (None, None, ["dims", "--dmax", "-1"]),
        (None, None, ["limit", "--ncap", "-1"]),
        (None, None, ["check", "daha", "--module", "poly", "--jobs", "2", "--n", "0"]),
        (None, None, ["check", "daha", "--module", "poly", "--jobs", "2", "--n", "-1"]),
        (None, None, ["check", "daha", "--module", "murnaghan", "--shape", "1", "--n", "2",
                      "--dmax", "1", "--demazure", "q-1"]),
        (None, None, ["check", "compat", *CHECK_POLY2, "--dmax", "1", "--demazure", "q-1"]),
        (None, None, ["check", "compat", *CHECK_POLY2, "--dmax", "1", "--probabilistic"]),
    ],
    ids=["T_without_index", "bare_int", "string_index", "z_without_index",
         "vector_without_entries", "flavor_not_int",
         "scalar_unbalanced_parenthesis", "scalar_trailing_input",
         "scalar_exponent_not_int", "scalar_unexpected_token",
         "check_dmax_negative", "check_jobs_negative", "check_kmax_negative",
         "check_bqt_dmax_negative", "limit_kmax_negative", "limit_dmax_negative",
         "dims_kmax_negative", "dims_dmax_negative", "limit_ncap_negative",
         "check_rank_zero_with_pool", "check_rank_negative_with_pool",
         "demazure_on_murnaghan", "demazure_on_compat", "compat_probabilistic"],
)
def test_malformed_input_exits_2_with_message(capsys, tmp_path, word, payload, argv):
    if argv is None:
        vec = tmp_path / "vec.json"
        vec.write_text(json.dumps(payload))
        argv = ["act", *CHECK_POLY2, "--word", word, "--in", str(vec)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    if word is None:
        assert out == ""
        flag, value = argv[-2:]
        if flag == "--n":
            # a bad rank fails in the parent process, before the pool starts
            assert "error: rank must be positive" in err
        elif flag == "--demazure":
            assert f"error: --demazure {value} applies to the polynomial module's" in err
        elif value == "--probabilistic":
            assert "error: the compat suite has no probabilistic mode" in err
        else:
            assert f"error: {flag} must be nonnegative, got {value}" in err
    elif word.startswith('[["Scalar"'):
        assert out == ""
        assert BAD_SCALAR_TEXT[json.loads(word)[0][1]] in err


CONST2 = {"rank": 2, "entries": [{"exponents": [0, 0], "coeff": "1"}]}


@pytest.mark.parametrize(
    "module_args, word, payload, message",
    [
        (["--n", "2"], '[["dminus"]]', {"flavor": 2, "vector": CONST2}, "below flavor 2"),
        (["--n", "2"], '[["dminus"]]', {"flavor": 3, "vector": CONST2}, "flavor 3 outside"),
        (
            ["--n", "2"],
            '[["dminus"]]',
            {"flavor": 1, "vector": {"rank": 2, "entries": [{"exponents": [0, 1], "coeff": "1"}]}},
            "does not lie in the flavor-1 space",
        ),
        (
            ["--module", "murnaghan", "--shape", "1", "--n", "2"],
            '[["T",1]]',
            {"rank": 2, "shape": [1], "entries": [
                {"exponents": [0, 0, 1], "tableau": [[1, 2]], "coeff": "1"}]},
            "basis key",
        ),
        (
            ["--module", "murnaghan", "--shape", "1", "--n", "2"],
            '[["T",1]]',
            {"rank": 2, "shape": [1], "entries": [
                {"exponents": [0, 1], "tableau": [[1, 2]], "coeff": "1"}]},
            "basis key",
        ),
        (
            ["--n", "2"],
            '[["T",1]]',
            {"rank": 2, "entries": [{"exponents": [-1, 1], "coeff": "1"}]},
            "basis key",
        ),
        (
            ["--n", "2"],
            '[["T",1]]',
            {"rank": 2, "entries": [{"exponents": [0.5, 1], "coeff": "1"}]},
            "basis key",
        ),
        (["--n", "2"], '[["X",1]]', {**CONST2, "rank": 2.7}, "rank 2.7 is not an integer"),
        (
            ["--n", "1"],
            '[["X",1]]',
            {"rank": True, "entries": [{"exponents": [0], "coeff": "1"}]},
            "rank True is not an integer",
        ),
        (
            ["--module", "murnaghan", "--shape", "1", "--n", "2"],
            '[["T",1]]',
            {"rank": 2, "shape": [1.5], "entries": [
                {"exponents": [0, 0], "tableau": [[1], [2]], "coeff": "1"}]},
            "diagram part 1.5 is not an integer",
        ),
        (
            ["--module", "murnaghan", "--shape", "1", "--n", "2"],
            '[["T",1]]',
            {"rank": 2, "shape": [1], "entries": [
                {"exponents": [0, 0], "tableau": [[1.0], [2.9]], "coeff": "1"}]},
            "tableau entry 1.0 is not an integer",
        ),
    ],
    ids=["flavor_above_degree", "flavor_above_rank", "outside_flavor_span",
         "three_exponents_at_rank_2", "tableau_of_another_shape", "negative_exponent",
         "fractional_exponent", "fractional_rank", "bool_rank", "fractional_shape_part",
         "fractional_tableau_entries"],
)
def test_act_rejects_payload_outside_module(capsys, tmp_path, module_args, word, payload, message):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps(payload))
    code, out, err = run(capsys, "act", *module_args, "--word", word, "--in", str(vec))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "word, payload, message",
    [
        ('[["T",3]]', CONST2, "T index 3 outside 1..1"),
        ('[["Eps",4]]', CONST2, "index 4 outside 0..2"),
        ('[["Y",0]]', CONST2, "Y index 0 outside 1..2"),
        (
            '[["z",2]]',
            {"flavor": 1, "vector": {"rank": 2, "entries": [{"exponents": [1, 0], "coeff": "1"}]}},
            "z index 2 outside 1..1",
        ),
    ],
    ids=["T_above_rank", "Eps_above_rank", "Y_zero", "z_above_flavor"],
)
def test_act_rejects_index_out_of_range(capsys, tmp_path, word, payload, message):
    # each operator checks its own index; the word is not pre-validated
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps(payload))
    code, out, err = run(capsys, "act", "--n", "2", "--word", word, "--in", str(vec))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_error_inside_a_suite_is_a_fail_report(capsys, monkeypatch, tmp_path):
    args = ("check", "daha", "--module", "poly", "--n", "2", "--dmax", "1",
            "--jobs", "1", "--no-timing")
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "good.json"))
    assert code == 0
    good = json.loads((tmp_path / "good.json").read_text())["reports"]

    def broken_Xi(self, v, i):
        raise ExactDivisionError("inexact division planted in X_i")

    monkeypatch.setattr(PolyRealization, "apply_Xi", broken_Xi)
    code, _, err = run(capsys, *args, "--out", str(tmp_path / "bad.json"))
    assert code == 1
    assert "Traceback" not in err
    doc = json.loads((tmp_path / "bad.json").read_text())
    assert doc["status"] == "fail"
    failed = {r["relation_id"]: r for r in doc["reports"] if r["status"] == "fail"}
    assert "daha_X_commute" in failed and "daha_quadratic" not in failed
    for rid, rep in failed.items():
        cex = rep["counterexample"]
        assert cex["error"] == "ExactDivisionError"
        assert cex["message"] == "inexact division planted in X_i"
        assert cex["vector"] == "(1)"
        assert "lhs" not in cex
    # every case is still counted, the failing ones included
    assert [r["vectors_checked"] for r in doc["reports"]] == [
        r["vectors_checked"] for r in good
    ]


def nested(depth: int, core: str = "q") -> str:
    return "(" * depth + core + ")" * depth


def poly2_constant(coeff: str) -> dict:
    return {"rank": 2, "entries": [{"exponents": [0, 0], "coeff": coeff}]}


def act_on_file(capsys, tmp_path, word: str, vector_text: str):
    vec = tmp_path / "vec.json"
    vec.write_text(vector_text)
    return run(capsys, "act", *CHECK_POLY2, "--word", word, "--in", str(vec))


@pytest.mark.parametrize(
    "word, vector_text, message",
    [
        ('[["X",1]]', json.dumps(poly2_constant(nested(400))), "scalar text is nested too deeply"),
        ('[["X",1]]', json.dumps(poly2_constant("-" * 1000 + "q")),
         "scalar text is nested too deeply"),
        (json.dumps([["Scalar", nested(400)]]), json.dumps(POLY2),
         "scalar text is nested too deeply"),
        ("[" * 5000 + "]" * 5000, json.dumps(POLY2), "JSON input is nested too deeply"),
        ('[["X",1]]', "[" * 5000 + "]" * 5000, "JSON input is nested too deeply"),
    ],
    ids=["coeff_parentheses", "coeff_unary_minus", "word_scalar_parentheses",
         "word_brackets", "vector_brackets"],
)
def test_deeply_nested_input_exits_2_with_message(capsys, tmp_path, word, vector_text, message):
    # nesting past the recursion limit is bad input, turned into ValueError
    # where the input is read; a recursion inside the engine is not caught
    code, out, err = act_on_file(capsys, tmp_path, word, vector_text)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_input_nested_200_deep_still_parses(capsys, tmp_path):
    q_x1 = {"rank": 2, "entries": [{"exponents": [1, 0], "coeff": "q"}]}
    for word, coeff in [
        ('[["X",1]]', nested(200)),
        ('[["X",1]]', "-" * 200 + "q"),
        (json.dumps([["Scalar", nested(200)], ["X", 1]]), "1"),
    ]:
        code, out, _ = act_on_file(capsys, tmp_path, word, json.dumps(poly2_constant(coeff)))
        assert code == 0 and json.loads(out) == q_x1
    # 200 brackets are read, and then rejected for what they are
    code, _, err = act_on_file(capsys, tmp_path, "[" * 200 + "]" * 200, json.dumps(POLY2))
    assert code == 2 and err.startswith("error: malformed word symbol")
    code, _, err = act_on_file(capsys, tmp_path, '[["X",1]]', "[" * 200 + "]" * 200)
    assert code == 2 and err.startswith("error: malformed vector JSON")
