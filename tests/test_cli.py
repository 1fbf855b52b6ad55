"""Command-line interface: output formats, exit codes, golden determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import table_element, toy_pair
from gluesurf import fourlines, intlinalg
from gluesurf.cli import main, report_to_dict
from gluesurf.fourlines import build_four_lines, enumerate_orbits
from gluesurf.gluing import gluing_to_dict, validate_gluing
from gluesurf.grouptheory import catalog_group, fingerprint, tietze_simplify
from gluesurf.topology import pi1_presentation

# stdout of ``classify-four-lines --format json``, kept by the benchmark
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "classify-four-lines.json"
# stdout of ``classify-four-lines``, the text table
GOLDEN_TEXT = Path(__file__).resolve().parent / "data" / "classify-four-lines.txt"
# stdout and exit code of the other commands, keyed by their arguments, with
# the X0.1 and X0.2 gluing files and PRESENTATION's file named as below
RECORDED_RUNS = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_runs.json").read_text())
PRESENTATION = {"generators": ["a", "b"], "relators": ["a^2", "b^3", "a b a b"]}


def invoke(cli, args):
    """Run ``cli(args)`` in-process; stdout, stderr and the exit code as a CLI run gives them."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli(args)
        except SystemExit as exc:
            code = exc.code or 0
    return SimpleNamespace(exit_code=code, output=out.getvalue() + err.getvalue(),
                           stdout_bytes=out.getvalue().encode())


@pytest.fixture
def runner():
    return SimpleNamespace(invoke=invoke)


def write_gluing(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(gluing_to_dict(data), indent=2, sort_keys=True))
    return str(path)


@pytest.fixture
def smith_forms(monkeypatch):
    """The matrices ``intlinalg.snf`` is called on while the test runs."""
    matrices = []
    monkeypatch.setattr(intlinalg, "snf",
                        lambda a, snf=intlinalg.snf: matrices.append(a) or snf(a))
    return matrices


def x02_fingerprint(catalog=None):
    """X0.2's fingerprint as the library computes it, against ``catalog``
    or the default catalog."""
    vg = validate_gluing(build_four_lines(table_element("X0.2")))
    return fingerprint(tietze_simplify(pi1_presentation(vg)), catalog=catalog)


@pytest.fixture
def x01_file(tmp_path):
    return write_gluing(tmp_path, "x01.json", build_four_lines(table_element("X0.1")))


@pytest.fixture
def x02_file(tmp_path):
    return write_gluing(tmp_path, "x02.json", build_four_lines(table_element("X0.2")))


class TestClassify:
    def test_text_table(self, runner):
        result = runner.invoke(main, ["classify-four-lines"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.strip()]
        assert len(lines) == 12  # header + 11 rows
        q_one = [l for l in lines[1:] if l.split()[3] == "1"]
        assert len(q_one) == 2

    def test_json_census(self, runner):
        result = runner.invoke(main, ["classify-four-lines", "--format", "json"])
        assert result.exit_code == 0
        docs = json.loads(result.output)
        assert len(docs) == 11
        assert sum(d["orbit_size"] for d in docs) == 36

    def test_json_round_trip_matches_records(self, runner):
        result = runner.invoke(main, ["classify-four-lines", "--format", "json"])
        docs = json.loads(result.output)
        records = enumerate_orbits()
        for doc, record in zip(docs, records):
            assert doc["label"] == record.table_label
            assert doc["orbit_size"] == record.orbit_size
            assert doc["stabilizer_order"] == len(record.stabilizer)
            assert doc["report"] == report_to_dict(record.report)

    def test_text_and_json_agree(self, runner):
        text = runner.invoke(main, ["classify-four-lines"]).output
        docs = json.loads(
            runner.invoke(main, ["classify-four-lines", "--format", "json"]).output
        )
        rows = [l.split() for l in text.splitlines()[1:] if l.strip()]
        for row, doc in zip(rows, docs):
            assert row[0] == doc["label"]
            assert int(row[1]) == doc["orbit_size"]
            assert int(row[2]) == doc["report"]["chi"]
            assert int(row[3]) == doc["report"]["q"]

    def test_byte_identical_output(self, runner):
        first = runner.invoke(main, ["classify-four-lines", "--format", "json"]).output
        second = runner.invoke(main, ["classify-four-lines", "--format", "json"]).output
        assert first == second

    def test_text_matches_golden_file(self, runner):
        result = runner.invoke(main, ["classify-four-lines"])
        assert result.exit_code == 0
        assert result.stdout_bytes == GOLDEN_TEXT.read_bytes()

    def test_json_matches_golden_file(self, runner):
        result = runner.invoke(main, ["classify-four-lines", "--format", "json"])
        assert result.exit_code == 0
        assert result.stdout_bytes == GOLDEN.read_bytes()

    def test_only_the_text_table_builds_generators(self, runner, monkeypatch):
        calls = []
        monkeypatch.setattr(fourlines, "generating_set",
                            lambda s, build=fourlines.generating_set: calls.append(s) or build(s))
        assert runner.invoke(main, ["classify-four-lines", "--format", "json"]).exit_code == 0
        assert calls == []
        assert runner.invoke(main, ["classify-four-lines"]).exit_code == 0
        assert len(calls) == 11


@pytest.mark.parametrize("args", sorted(RECORDED_RUNS))
def test_output_matches_recorded_run(runner, tmp_path, x01_file, x02_file, args):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(PRESENTATION))
    files = {"X0.1": x01_file, "X0.2": x02_file, "pres.json": str(pres)}
    result = runner.invoke(main, [files.get(a, a) for a in args.split()])
    expected = RECORDED_RUNS[args]
    assert result.exit_code == expected["exit_code"]
    assert result.stdout_bytes == expected["stdout"].encode()


class TestInvariants:
    def test_irregular_surface_report(self, runner, x01_file):
        result = runner.invoke(main, ["invariants", x01_file, "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert (doc["chi"], doc["q"], doc["pg"], doc["k2"]) == (0, 1, 0, 1)
        assert doc["homology"] == [
            {"rank": 1, "torsion": []},
            {"rank": 1, "torsion": []},
            {"rank": 1, "torsion": []},
            {"rank": 2, "torsion": []},
            {"rank": 1, "torsion": []},
        ]
        assert len(doc["cusps"]) == 1 and len(doc["cusps"][0]) == 6

    def test_regular_surface_report(self, runner, tmp_path):
        path = write_gluing(tmp_path, "x22.json",
                            build_four_lines(table_element("X2.2")))
        result = runner.invoke(main, ["invariants", path, "--format", "json"])
        doc = json.loads(result.output)
        assert (doc["chi"], doc["q"]) == (2, 0)

    def test_malformed_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["invariants", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_unsupported_configuration_exits_4(self, runner, tmp_path, x01_file):
        doc = json.loads(open(x01_file).read())
        doc["normalization"][0]["simply_connected"] = False
        path = tmp_path / "nsc.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 4

    @pytest.mark.parametrize("command", ["pi1", "homology", "invariants"])
    def test_simply_connected_with_nontrivial_h1_exits_2(self, runner, tmp_path, x01_file,
                                                         command):
        # H1 is the abelianised pi1, so a simply connected plane has H1 = 0
        doc = json.loads(open(x01_file).read())
        doc["normalization"][0]["h1"] = {"rank": 2, "torsion": []}
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and "InconsistentHomology" in result.output

    @pytest.mark.parametrize("command", ["homology", "pi1", "invariants"])
    @pytest.mark.parametrize("key, value", [("q", -1), ("h2_rank", -1), ("h4_rank", -2)])
    def test_negative_rank_exits_2(self, runner, tmp_path, x01_file, key, value, command):
        doc = json.loads(open(x01_file).read())
        if key == "h2_rank":
            # on the plane the curves' h2_class lengths already disagree with
            # it; a second component without curves has nothing to disagree
            doc["normalization"].append({"id": "zz", "chi_O": 1, "h2_rank": value})
        else:
            doc["normalization"][0][key] = value
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and "BadRank: " in result.output
        assert key in result.output

    def test_no_catalog_group_without_fingerprint(self, runner, x01_file):
        catalog_group.cache_clear()
        assert runner.invoke(main, ["invariants", x01_file]).exit_code == 0
        assert runner.invoke(main, ["invariants", x01_file, "--catalog", "A5"]).exit_code == 2
        assert catalog_group.cache_info().currsize == 0

    def test_fingerprint_flag(self, runner, x01_file):
        result = runner.invoke(main, [
            "invariants", x01_file, "--format", "json",
            "--fingerprint", "--catalog", "C2,A4",
        ])
        doc = json.loads(result.output)
        assert doc["pi1"]["fingerprint"]["A4"][1] >= 1

    def test_fingerprint_text_line(self, runner, x02_file):
        result = runner.invoke(main, ["invariants", x02_file, "--fingerprint"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == f"fingerprint = {x02_fingerprint()}"


class TestDistinguish:
    def test_the_two_irregular_surfaces(self, runner, x01_file, x02_file):
        result = runner.invoke(main, [
            "distinguish", x01_file, x02_file, "--catalog", "C2,C3,A4",
        ])
        assert result.exit_code == 0
        assert "DISTINGUISHED at A4" in result.output

    def test_self_comparison_is_inconclusive(self, runner, x01_file):
        result = runner.invoke(main, ["distinguish", x01_file, x01_file,
                                      "--catalog", "C2,C3,A4"])
        assert result.exit_code == 0
        assert "INCONCLUSIVE" in result.output

    def test_torsion_two_versus_three(self, runner, tmp_path):
        p2 = write_gluing(tmp_path, "z2.json", toy_pair(2, 1))
        p3 = write_gluing(tmp_path, "z3.json", toy_pair(3, 1))
        result = runner.invoke(main, ["distinguish", p2, p3,
                                      "--catalog", "C2,C3"])
        assert "DISTINGUISHED at C2" in result.output

    def test_json_verdict(self, runner, x01_file, x02_file):
        result = runner.invoke(main, [
            "distinguish", x01_file, x02_file, "--format", "json",
            "--catalog", "A4",
        ])
        doc = json.loads(result.output)
        assert doc["verdict"] == "DISTINGUISHED"
        assert doc["witness"] == "A4"


class TestHomcountAndPi1:
    def test_homcount(self, runner, tmp_path):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(
            {"generators": ["a"], "relators": ["a^2"]}
        ))
        result = runner.invoke(main, ["homcount", str(path),
                                      "--group", "C2", "--group", "C3",
                                      "--format", "json"])
        assert json.loads(result.output) == {"C2": [2, 1], "C3": [1, 0]}

    def test_homcount_budget_exit_3(self, runner, tmp_path):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(
            {"generators": ["a", "b", "c", "d", "e"], "relators": []}
        ))
        result = runner.invoke(main, ["homcount", str(path),
                                      "--group", "A5", "--budget", "1000"])
        assert result.exit_code == 3

    def test_long_relator_exits_3_on_the_letter_bound(self, runner, tmp_path):
        # per each of A5's 44 image-pair orbits: the 96,000 letters once, then two
        # lookups per letter of c (32,000) for each of its 60 images; about 1.7e8
        # letter steps, while 60^3 tuples are within the budget of 10^8
        path = tmp_path / "pres.json"
        path.write_text(json.dumps({"generators": ["a", "b", "c"],
                                    "relators": [" ".join(["a b c a^-1 b^-1 c^-1"] * 16000)]}))
        start = time.perf_counter()
        result = runner.invoke(main, ["homcount", str(path), "--group", "A5"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 3
        assert "hom_count" in result.output and "letter steps" in result.output

    def test_many_relators_count_into_c2(self, runner, tmp_path, smith_forms):
        # the repeated relators are dropped before the Smith form, which is 1 x 1
        path = tmp_path / "pres.json"
        path.write_text(json.dumps({"generators": ["a"], "relators": ["a"] * 10 ** 5}))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["homcount", str(path), "--group", "C2",
                                          "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 10
        assert peak < 10 ** 8
        assert result.exit_code == 0
        assert json.loads(result.output) == {"C2": [1, 0]}
        assert [(a.rows, a.cols) for a in smith_forms] == [(1, 1)]

    @pytest.mark.parametrize("budget", ["0", "-1", "abc", "1.5"])
    def test_budget_below_one_exits_2(self, runner, tmp_path, budget):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps({"generators": ["a"], "relators": []}))
        result = runner.invoke(main, ["homcount", str(path),
                                      "--group", "C2", "--budget", budget])
        assert result.exit_code == 2
        assert "--budget" in result.output

    def test_pi1_output(self, runner, x02_file):
        result = runner.invoke(main, ["pi1", x02_file, "--format", "json"])
        doc = json.loads(result.output)
        assert len(doc["presentation"]["generators"]) == 4
        assert len(doc["simplified"]["generators"]) == 2
        assert doc["abelianization"] == {"rank": 1, "torsion": []}

    def test_pi1_fingerprint_runs_one_smith_form(self, runner, x02_file, smith_forms):
        # the printed abelianization is the simplified presentation's, which
        # the fingerprint's cyclic counts then reuse
        result = runner.invoke(main, ["pi1", x02_file, "--fingerprint"])
        assert result.exit_code == 0
        assert "abelianized = Z\n" in result.output
        assert len(smith_forms) == 1

    def test_pi1_fingerprint_json(self, runner, x02_file):
        result = runner.invoke(main, ["pi1", x02_file, "--fingerprint", "--catalog", "C2,A4",
                                      "--format", "json"])
        assert result.exit_code == 0
        expected = x02_fingerprint((catalog_group("C2"), catalog_group("A4")))
        assert json.loads(result.output)["fingerprint"] == expected.as_dict()

    def test_homology_command(self, runner, x01_file):
        result = runner.invoke(main, ["homology", x01_file])
        assert result.exit_code == 0
        assert "H3 = Z^2" in result.output

    def test_disconnected_surface(self, runner, tmp_path, x01_file):
        # X0.1 plus an isolated plane: homology is defined, pi1 of X is not
        doc = json.loads(open(x01_file).read())
        doc["normalization"].append(dict(doc["normalization"][0], id="isolated"))
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        homology = runner.invoke(main, ["homology", str(path)])
        assert homology.exit_code == 0
        assert "H0 = Z^2" in homology.output
        pi1 = runner.invoke(main, ["pi1", str(path)])
        assert pi1.exit_code == 4
        assert "components" in pi1.output

    @pytest.mark.parametrize("h2_rank", [10**5, 10**9])
    def test_huge_sphere_level_map_answers(self, runner, tmp_path, x01_file, h2_rank):
        # a component with no curves adds h2_rank rows with no entry to the
        # sphere-level map, a size that the file's length does not bound; the
        # sparse map stores none of them
        def euler(path):
            result = runner.invoke(main, ["homology", str(path), "--format", "json"])
            assert result.exit_code == 0
            groups = json.loads(result.output)["homology"]
            assert all(h["torsion"] == [] for h in groups[1:3])
            return sum((-1) ** i * h["rank"] for i, h in enumerate(groups))

        doc = json.loads(open(x01_file).read())
        doc["normalization"].append(dict(doc["normalization"][0], id="zz", h2_rank=h2_rank))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        huge = euler(path)
        assert time.perf_counter() - start < 1
        # the extra component adds Z to H0 and H4 and Z^h2_rank to H2
        assert huge == euler(x01_file) + h2_rank + 2


@pytest.mark.parametrize("where, value", [
    (("node_pairing",), [1, 2]),
    (("normalization",), 5),
    (("curve_components",), None),
    (("involution", "components"), [1]),
    (("involution", "points"), [1]),
], ids=["node_pairing", "normalization", "curve_components", "involution.components",
        "involution.points"])
def test_malformed_shape_exits_2(runner, tmp_path, x01_file, where, value):
    doc = json.loads(open(x01_file).read())
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and where[-1] in result.output


@pytest.mark.parametrize("args", [
    ["pi1", "{x02}", "--fingerprint", "--catalog", ""],
    ["pi1", "{x02}", "--fingerprint", "--catalog", " , "],
    ["pi1", "{x02}", "--fingerprint", "--catalog", "C2,C2"],
    ["distinguish", "{x01}", "{x02}", "--catalog", ""],
    ["homcount", "{pres}", "--group", "C2", "--group", "C2"],
], ids=["empty", "blank", "repeated", "distinguish-empty", "group-repeated"])
def test_empty_or_repeated_group_list_exits_2(runner, tmp_path, x01_file, x02_file, args):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": ["a"], "relators": ["a^2"]}))
    result = runner.invoke(main, [a.format(x01=x01_file, x02=x02_file, pres=pres) for a in args])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


@pytest.mark.parametrize("command", ["pi1", "invariants"])
@pytest.mark.parametrize("catalog", ["Z7", "", "A4"])
def test_catalog_without_fingerprint_exits_2(runner, x02_file, command, catalog):
    result = runner.invoke(main, [command, x02_file, "--catalog", catalog])
    assert result.exit_code == 2
    assert result.output == "error: --catalog needs --fingerprint\n"


@pytest.mark.parametrize("doc, key", [
    ({"generators": 5, "relators": []}, "generators"),
    ({"generators": ["a"], "relators": 5}, "relators"),
    ({"generators": [1], "relators": []}, "generators"),
    ({"generators": ["a"], "relators": [["a"]]}, "relators"),
    ({"generators": ["a"], "relators": ["a^1000000000"]}, "letters"),
    ({"generators": ["a"], "relators": ["a^60000", "a^60000"]}, "letters"),
    ({"generators": ["a"], "relators": ["a^"]}, "exponent"),
    ({"generators": ["a"], "relators": ["a^1_0"]}, "exponent"),
    ({"generators": ["a"], "relators": ["a^\u0663"]}, "exponent"),
    ({"generators": [""], "relators": []}, "generator name"),
    ({"generators": ["a b"], "relators": []}, "generator name"),
    ({"generators": ["a\n"], "relators": []}, "generator name"),
    ({"generators": ["a^b"], "relators": []}, "generator name"),
    ({"generators": ["a"], "relators": [], "extra": 1}, "unknown key 'extra'"),
], ids=["generators-int", "relators-int", "generator-not-string", "relator-not-string",
        "relator-too-long", "presentation-too-long", "empty-exponent", "underscore-exponent",
        "non-ascii-exponent", "empty-name", "space-in-name", "newline-in-name", "caret-in-name",
        "unknown-key"])
def test_malformed_presentation_exits_2(runner, tmp_path, doc, key):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["homcount", str(path), "--group", "C2"])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and key in result.output


@pytest.mark.parametrize("content", [
    b"[" * 100000 + b"]" * 100000,
    b'{"generators": ["\xff"], "relators": []}',
    b'{"generators": ' + b"9" * 5000 + b', "relators": []}',
    b'{"generators": ["a"], "relators": ["a^' + b"9" * 5000 + b'"]}',
], ids=["deep-nesting", "not-utf8", "long-integer", "long-exponent"])
def test_undecodable_presentation_exits_2(runner, tmp_path, content):
    path = tmp_path / "pres.json"
    path.write_bytes(content)
    result = runner.invoke(main, ["homcount", str(path), "--group", "C2"])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
)
tokens = st.one_of(
    st.sampled_from("abc"),
    st.builds("{}^{}".format, st.sampled_from("abc"), st.integers(-10 ** 12, 10 ** 12)),
    st.text(alphabet="abc^-+_09\u0663", max_size=6),
)


@st.composite
def presentation_documents(draw):
    """Presentation documents over a, b, c, most of them broken in one way."""
    doc = {"generators": draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True)),
           "relators": draw(st.lists(st.lists(tokens, max_size=4).map(" ".join), max_size=3))}
    mutation = draw(st.sampled_from(
        ["none", "drop", "swap", "swap-entry", "top", "bad-name", "duplicate-name"]))
    key = draw(st.sampled_from(sorted(doc)))
    if mutation == "drop":
        del doc[key]
    elif mutation == "swap":
        doc[key] = draw(json_values)
    elif mutation == "swap-entry" and doc[key]:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(json_values)
    elif mutation == "top":
        doc = draw(json_values)
    elif mutation == "bad-name":
        doc["generators"].append(draw(st.sampled_from(["", "a b", "b^", " c", "a\t"])))
    elif mutation == "duplicate-name" and doc["generators"]:
        doc["generators"].append(doc["generators"][0])
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(presentation_documents())
def test_homcount_fuzz_exits_0_2_or_3(runner, tmp_path, doc):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["homcount", str(path), "--group", "C2"])
    assert result.exit_code in (0, 2, 3)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("section, key, value", [
    ("curve_components", "marked_points", "P12"),
    ("curve_components", "h2_class", "1"),
    ("normalization", "simply_connected", "false"),
    ("normalization", "simply_connected", 0),
    ("curve_components", "on", 5),
], ids=["marked_points-str", "h2_class-str", "simply_connected-str", "simply_connected-int",
        "on-int"])
def test_wrong_value_type_exits_2(runner, tmp_path, x01_file, section, key, value):
    doc = json.loads(open(x01_file).read())
    for entry in doc[section]:
        entry[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and f"{key} must be" in result.output
    assert "ambient" not in result.output


@pytest.mark.parametrize("value", [1.7, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("section, key, shape, named", [
    ("normalization", "chi_O", "value", "chi_O"),
    ("normalization", "q", "value", "q"),
    ("normalization", "h2_rank", "value", "h2_rank"),
    ("normalization", "h4_rank", "value", "h4_rank"),
    ("normalization", "k_plus_d_sq", "value", "k_plus_d_sq"),
    ("curve_components", "genus", "value", "genus"),
    ("curve_components", "h2_class", "entry", "h2_class"),
    ("normalization", "h1", "rank", "rank"),
    ("normalization", "h3", "torsion", "torsion"),
], ids=["chi_O", "q", "h2_rank", "h4_rank", "k_plus_d_sq", "genus", "h2_class",
        "h1-rank", "h3-torsion"])
def test_non_integer_value_exits_2(runner, tmp_path, x01_file, section, key, shape, named, value):
    doc = json.loads(open(x01_file).read())
    wrapped = {"value": value, "entry": [value], "rank": {"rank": value},
               "torsion": {"rank": 0, "torsion": [value]}}[shape]
    for entry in doc[section]:
        entry[key] = wrapped
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and named in result.output


@pytest.mark.parametrize("torsion", [{}, 5, "2"], ids=["object", "int", "str"])
def test_torsion_that_is_not_a_list_exits_2(runner, tmp_path, x01_file, torsion):
    # an object was once read as no torsion at all, and 5 failed on iterating it
    doc = json.loads(open(x01_file).read())
    doc["normalization"][0]["h1"] = {"rank": 0, "torsion": torsion}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert result.output == ("error: normalization[0].h1: torsion must be a list or tuple, "
                             f"not {type(torsion).__name__}\n")


@pytest.mark.parametrize("section, key, named", [
    ("normalization", "id", "'id'"),
    ("normalization", "chi_O", "'chi_O'"),
    ("curve_components", "id", "'id'"),
    ("curve_components", "on", "'on'"),  # the key, not the field "ambient" that it fills
    ("curve_components", "marked_points", "marked_points must be a list or tuple"),
])
def test_missing_required_key_exits_2(runner, tmp_path, x01_file, section, key, named):
    doc = json.loads(open(x01_file).read())
    del doc[section][0][key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith(f"error: {section}[0]: TypeError(") and named in result.output
    assert "ambient" not in result.output


def test_import_builds_no_catalog_group():
    # the catalog is generator data; each group is built on first use only
    # and the CLI parses its arguments with the standard library alone
    code = (
        "import sys\n"
        "import gluesurf.cli\n"
        "from gluesurf.grouptheory import catalog_group\n"
        "print(catalog_group.cache_info().currsize, 'click' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.split() == ["0", "False"]


def _renamed(doc: dict, old: str, new, sections: tuple[str, ...]) -> dict:
    """``doc`` with the id or point name ``old`` renamed: to ``new`` in the
    given top-level sections, and to its string form everywhere else."""
    out = {}
    for key, value in doc.items():
        name = new if key in sections else str(new)
        out[key] = json.loads(json.dumps(value).replace(json.dumps(old), json.dumps(name)))
    return out


@pytest.mark.parametrize("old, new, sections, named", [
    ("plane", ["plane"], ("normalization", "curve_components"), "id"),
    ("L1", 7, ("curve_components",), "id"),
    ("plane", 5, ("curve_components",), "on"),
    ("P43", 43, ("curve_components",), "marked_points"),
    ("P43", 43, ("node_pairing",), "node_pairing"),
    ("P43", 43, ("involution",), "involution"),
    ("L1", 7, ("involution",), "involution"),
], ids=["normal-id-list", "curve-id-int", "on-int", "marked_points-int", "node_pairing-int",
        "involution-points-int", "involution-components-int"])
def test_non_string_name_exits_2(runner, tmp_path, x01_file, old, new, sections, named):
    doc = json.loads(open(x01_file).read())
    path = tmp_path / "named.json"
    # the same renaming with strings throughout is a valid gluing
    path.write_text(json.dumps(_renamed(doc, old, new, ())))
    assert runner.invoke(main, ["invariants", str(path)]).exit_code == 0
    path.write_text(json.dumps(_renamed(doc, old, new, sections)))
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and named in result.output


@pytest.mark.parametrize("where, key", [
    ((), "comment"),
    (("normalization", 0), "simply_conected"),
    (("curve_components", 2), "genera"),
    (("involution",), "point"),
    (("normalization", 0, "h1"), "ranks"),
    (("normalization", 0, "h3"), "torsion_free"),
], ids=["top-level", "normalization", "curve", "involution", "h1", "h3"])
def test_unknown_key_exits_2(runner, tmp_path, x01_file, where, key):
    doc = json.loads(open(x01_file).read())
    target = doc
    for step in where:
        target = target[step]
    target[key] = False
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["pi1", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and repr(key) in result.output


@pytest.mark.parametrize("command", ["pi1", "invariants", "homcount"])
def test_repeated_key_exits_2(runner, tmp_path, x01_file, command):
    if command == "homcount":
        key = "relators"
        text = '{"generators": ["a"], "relators": [], "relators": ["a^2"]}'
        args = ["--group", "C2"]
    else:
        key = "simply_connected"
        # read as the last of its two values, the plane is the valid X0.1 again
        text = open(x01_file).read().replace(
            '"simply_connected": true', '"simply_connected": false, "simply_connected": true')
        assert text != open(x01_file).read()
        args = []
    path = tmp_path / "repeated.json"
    path.write_text(text)
    result = runner.invoke(main, [command, str(path), *args])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and repr(key) in result.output
