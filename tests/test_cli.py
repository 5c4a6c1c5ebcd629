import argparse
import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildskel.annulus import ValuedSeries, different_profile, normalize
from wildskel.cli import COMMANDS, _add_arguments, build_parser, export_dot, run
from wildskel.delta_morphism import morphism_from_json_dict, morphism_to_json_dict
from wildskel.genus_graph import GenusGraph
from wildskel.special import build_special
from wildskel.valuation import INF, ResidueSetting

from tests.support import (
    FIXTURES,
    HYBRID_KUMMER,
    _fixture,
    identity_morphism,
    json_value_paths,
    one_edge_identity,
    subdivide_metric,
)

ROOT = Path(__file__).resolve().parent.parent


class TestExitCodes:
    def test_rh_check_ok(self, capsys):
        assert run(["rh-check", str(FIXTURES / "wb.morphism.json")]) == 0
        out = capsys.readouterr().out
        assert "divisor identity: ok" in out

    def test_missing_file(self, capsys):
        assert run(["rh-check", "no_such_file.json"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["rh-check", str(bad)]) == 2

    def test_metric_lift_ok(self, capsys):
        code = run(
            [
                "metric-lift",
                "--type",
                "MS",
                "--l1",
                "1/2",
                "--l3",
                "1/6",
                "--setting",
                "mixed:2:-1",
            ]
        )
        assert code == 0

    def test_metric_lift_unparsable_setting(self, capsys):
        assert run(["metric-lift", "--type", "MS", "--setting", "bogus"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: cannot parse residue setting 'bogus'\n"
        )

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("mixed:2:-inf", "log_p must be a strictly negative rational"),
            ("equicharP:x", "p is 'x', not an integer"),
            ("mixed:x:-1", "p is 'x', not an integer"),
        ],
    )
    def test_setting_fault_is_named(self, capsys, setting, message):
        series = str(FIXTURES / "kummer_p2.series")
        assert run(["annulus", "--series", series, "--setting", setting]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_metric_lift_unliftable(self, capsys):
        code = run(["metric-lift", "--type", "ME", "--setting", "mixed:2:-1"])
        assert code == 1
        assert "exceptional" in capsys.readouterr().out

    def test_classify_not_special(self, tmp_path, capsys):
        g = GenusGraph({"a": 1, "b": 0}, {"e": ("a", "b")})
        data = morphism_to_json_dict(identity_morphism(g))
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(data))
        assert run(["classify-special", str(path)]) == 1


class TestReports:
    def test_elliptic_json(self, capsys):
        code = run(
            [
                "elliptic",
                "--char",
                "0",
                "--res-char",
                "2",
                "--log-p",
                "-1",
                "--log-j",
                "-4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "MS"
        assert payload["l1"] == "1/2"
        assert payload["l3"] == "1/6"

    def test_annulus_kummer(self, capsys):
        code = run(
            [
                "annulus",
                "--series",
                str(FIXTURES / "kummer_p2.series"),
                "--setting",
                "mixed:2:-1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "m=2 n=2 log_delta=-1 s=0" in out

    def test_annulus_binomial_json(self, capsys):
        code = run(
            [
                "annulus",
                "--series",
                str(FIXTURES / "binomial_p2.series"),
                "--setting",
                "mixed:2:-1",
                "--domain=-1:0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 2
        assert payload["n"] == 3
        assert payload["log_delta"] == "-1/2"
        assert payload["slope_s"] == -1
        assert payload["profile"]["segments"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("series", ["kummer_p2", "binomial_p2"])
    def test_annulus_profile_on_an_unbounded_domain(self, capsys, series, json_flag):
        path = FIXTURES / f"{series}.series"
        expected = different_profile(
            normalize(ValuedSeries.from_text(path.read_text())),
            ResidueSetting.parse("mixed:2:-1"), (-1, INF),
        ).to_json_dict()
        argv = ["annulus", "--series", str(path), "--setting", "mixed:2:-1", "--domain=-1:inf"]
        assert run(argv + json_flag) == 0
        out = capsys.readouterr().out
        if json_flag:
            assert json.loads(out)["profile"] == expected
        else:
            assert out.splitlines()[1] == f"profile: {expected}"
        assert expected["domain"] == ["-1", "inf"] and expected["breakpoints"][-1] == "inf"

    @pytest.mark.parametrize(
        "domain, message",
        [
            ("x:1", "Invalid literal for Fraction: 'x'"),
            ("0:x", "Invalid literal for Fraction: 'x'"),
            ("1:0", "empty domain [1, 0]"),
            ("inf:0", "Invalid literal for Fraction: 'inf'"),
            ("1", "not enough values to unpack (expected 2, got 1)"),
            ("", "not enough values to unpack (expected 2, got 1)"),  # was ignored: exit 0
            ("1:2:3", "too many values to unpack (expected 2)"),
        ],
    )
    def test_annulus_domain_errors(self, capsys, domain, message):
        series = str(FIXTURES / "kummer_p2.series")
        assert run(["annulus", "--series", series, "--setting", "mixed:2:-1",
                    f"--domain={domain}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_enumerate_special_json(self, capsys):
        assert run(["enumerate-special", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 12
        assert sum(1 for item in payload if item["liftable"]) == 10

    def test_classify_metric_reports_lengths(self, capsys):
        code = run(
            [
                "classify-special",
                str(FIXTURES / "ms_metric.morphism.json"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "MS"
        assert payload["lengths"] == {"l0": "0", "l1": "1/2", "l3": "1/6"}

    def test_radial_strict(self, capsys):
        code = run(["radial", str(FIXTURES / "ms_metric.morphism.json")])
        assert code == 0
        assert "STRICTLY" in capsys.readouterr().out

    def test_radial_equal(self, capsys):
        code = run(["radial", str(FIXTURES / "kummer_p2_metric.morphism.json")])
        assert code == 0
        assert "equals" in capsys.readouterr().out

    def test_stabilize(self, capsys):
        code = run(["stabilize", str(FIXTURES / "wb_subdivided.morphism.json")])
        assert code == 0
        assert "4 vertices, 4 edges" in capsys.readouterr().out

    def test_stabilize_keeps_metric_data(self, tmp_path, capsys):
        import random

        mm = _fixture("ms_metric")
        path = tmp_path / "ms_subdivided.json"
        path.write_text(
            json.dumps(morphism_to_json_dict(subdivide_metric(random.Random(7), mm)))
        )
        assert run(["stabilize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["setting"] == "mixed:2:-1"
        assert "delta" in payload
        assert all("length" in e for e in payload["source"]["edges"])
        assert payload == morphism_to_json_dict(mm)


class TestInputErrors:
    """Malformed morphism files exit 2 with an error line, no traceback."""

    def _run(self, tmp_path, capsys, data, argv=("rh-check",)):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code = run([*argv, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_hybrid_morphism_rejected(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, HYBRID_KUMMER)
        assert "must both be metric or both plain" in err

    def test_vertices_as_plain_strings(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "wb.morphism.json").read_text())
        data["source"]["vertices"] = [v["id"] for v in data["source"]["vertices"]]
        err = self._run(tmp_path, capsys, data)
        assert "vertices entry" in err and "is not an object" in err

    @pytest.mark.parametrize(
        "key", ["source", "target", "vertex_map", "edge_map", "n", "sdelta", "delta"]
    )
    def test_entry_not_an_object(self, tmp_path, capsys, key):
        data = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
        data[key] = sorted(data[key].items())
        err = self._run(tmp_path, capsys, data)
        assert f"morphism {key} is not an object" in err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("n", "a"), [2], "morphism n value of 'a' is [2], not a number"),
            (("n", "a"), None, "morphism n value of 'a' is None, not a number"),
            (("n", "a"), {}, "morphism n value of 'a' is {}, not a number"),
            (("sdelta", "a"), [0], "morphism sdelta value of 'a' is [0], not a number"),
            (("sdelta", "a"), None, "morphism sdelta value of 'a' is None, not a number"),
            (("sdelta", "a"), {}, "morphism sdelta value of 'a' is {}, not a number"),
            (("delta", "s"), 0, "morphism delta value of 's' is 0, not a string"),
            (("setting",), 2, "morphism setting 2 is not a string"),
            (("source", "edges", 0, "length"), 1, "edge a length 1 is not a string"),
            (("source", "vertices"), {"s": 0}, "source graph vertices is not a list"),
            (("target", "infinite_leaves"), "v1'", "target graph infinite_leaves is not a list"),
            (("n", "a"), 1.5, "morphism n value of 'a' is 1.5, not an integer"),
            (("n", "a"), True, "morphism n value of 'a' is True, not an integer"),
            (("sdelta", "a"), 0.5, "morphism sdelta value of 'a' is 0.5, not an integer"),
            (("sdelta", "a"), False, "morphism sdelta value of 'a' is False, not an integer"),
            (("source", "vertices", 0, "genus"), [1], "vertex s genus [1] is not an integer"),
            (("source", "vertices", 0, "genus"), {}, "vertex s genus {} is not an integer"),
            (("source", "vertices", 0, "genus"), None, "vertex s genus None is not an integer"),
            (("source", "vertices", 0, "genus"), 1.0, "vertex s genus 1.0 is not an integer"),
            (("source", "vertices", 0, "genus"), True, "vertex s genus True is not an integer"),
            (("source", "vertices", 0, "id"), ["s"],
             "vertices entry id ['s'] is not a string or an integer"),
            (("source", "vertices", 0, "id"), {},
             "vertices entry id {} is not a string or an integer"),
            (("source", "edges", 0, "id"), ["a"],
             "edges entry id ['a'] is not a string or an integer"),
            (("target", "edges", 0, "id"), {},
             "edges entry id {} is not a string or an integer"),
            (("source", "edges", 0, "length"), "1/0", "'1/0' has a zero denominator"),
            (("delta", "s"), "1/0", "'1/0' has a zero denominator"),
            (("target", "vertices"), {"s'": 0}, "target graph vertices is not a list"),
            (("source", "edges"), "a", "source graph edges is not a list"),
            (("target", "edges"), None, "target graph edges is not a list"),
            (("sdelta", "a"), "x", "morphism sdelta value of 'a' is 'x', not an integer"),
            (("n", "a"), "2x", "morphism n value of 'a' is '2x', not an integer"),
            (("delta", "s"), "-1x",
             "morphism delta value of 's' is '-1x', not a rational or -inf"),
            (("source", "edges", 0, "length"), "1x", "edge a length '1x' is not a rational or inf"),
            (("source", "edges", 0, "length"), "1e1000000",
             "edge a length '1e1000000' is not a rational or inf"),
            (("delta", "s"), "1e999999",
             "morphism delta value of 's' is '1e999999', not a rational or -inf"),
        ],
        ids=[
            "n-list", "n-null", "n-object", "sdelta-list", "sdelta-null",
            "sdelta-object", "delta-number", "setting-number", "length-number",
            "vertices-object", "infinite_leaves-string", "n-float", "n-bool",
            "sdelta-float", "sdelta-bool", "genus-list", "genus-object",
            "genus-null", "genus-float", "genus-bool", "vertex-id-list",
            "vertex-id-object", "edge-id-list", "edge-id-object",
            "length-zero-denominator", "delta-zero-denominator",
            "target-vertices-object", "source-edges-string", "target-edges-null",
            "sdelta-text", "n-text", "delta-text", "length-text",
            "length-digits", "delta-digits",
        ],
    )
    def test_value_of_wrong_kind(self, tmp_path, capsys, path, value, message):
        data = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        assert self._run(tmp_path, capsys, data) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "path, message",
        [
            (("source", "vertices", 0, "id"), "vertices entry {'genus': 0} lacks key 'id'"),
            (("source", "edges", 0, "id"),
             "edges entry {'from': 't', 'length': '1', 'to': 's'} lacks key 'id'"),
            (("source", "edges", 0, "from"), "edge a lacks key 'from'"),
            (("target", "edges", 1, "to"), "edge e2' lacks key 'to'"),
            (("source", "edges", 2, "length"), "edge e2 lacks key 'length'"),
            (("source", "vertices"), "source graph lacks key 'vertices'"),
            (("target", "edges"), "target graph lacks key 'edges'"),
            (("source",), "morphism lacks key 'source'"),
            (("target",), "morphism lacks key 'target'"),
            (("vertex_map",), "morphism lacks key 'vertex_map'"),
            (("edge_map",), "morphism lacks key 'edge_map'"),
            (("n",), "morphism lacks key 'n'"),
            (("sdelta",), "morphism lacks key 'sdelta'"),
        ],
        ids=[
            "vertex-id", "edge-id", "from", "to", "length", "vertices", "edges",
            "source", "target", "vertex_map", "edge_map", "n", "sdelta",
        ],
    )
    def test_missing_key(self, tmp_path, capsys, path, message):
        data = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        del entry[path[-1]]
        assert self._run(tmp_path, capsys, data) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("rh-check", "DIR"),
            ("annulus", "--series", "DIR", "--setting", "equichar0"),
            ("metric-lift", "--type", "WB", "--setting", "equicharP:18446744073709551629"),
        ],
        ids=["rh-check-directory", "annulus-directory", "characteristic-2^64+13"],
    )
    def test_unusable_argument(self, tmp_path, capsys, argv):
        assert run([str(tmp_path) if a == "DIR" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_characteristic_of_2_64_or_more_in_a_file(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
        data["setting"] = "equicharP:18446744073709551629"
        err = self._run(tmp_path, capsys, data)
        assert err == "error: characteristic 18446744073709551629 is not below 2^64\n"

    @pytest.mark.parametrize("document", [5, None, True])
    def test_export_dot_of_a_non_object(self, tmp_path, capsys, document):
        err = self._run(tmp_path, capsys, document, argv=("export-dot",))
        assert err == "error: graph is not an object\n"

    def test_integer_ids_still_load(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "wb.morphism.json").read_text())
        names = {v["id"]: i for i, v in enumerate(data["source"]["vertices"])}
        for v in data["source"]["vertices"]:
            v["id"] = names[v["id"]]
        for e in data["source"]["edges"]:
            e["from"], e["to"] = names[e["from"]], names[e["to"]]
        data["vertex_map"] = {names[k]: v for k, v in data["vertex_map"].items()}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert run(["rh-check", str(path)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "metric-lift --type MS --setting mixed:2:1/0",
            "metric-lift --type MS --setting mixed:2:-1 --l1 1/0",
            "elliptic --char 0 --res-char 2 --log-p -1 --log-j 1/0",
            "elliptic --char 0 --res-char 2 --log-p 1/0 --log-j 0",
            "annulus --series SERIES --setting equichar0 --domain=1/0:1",
        ],
        ids=["setting", "l1", "log-j", "log-p", "domain"],
    )
    def test_zero_denominator_argument(self, capsys, argv):
        series = str(FIXTURES / "kummer_p2.series")
        assert run([series if a == "SERIES" else a for a in argv.split()]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: '1/0' has a zero denominator\n"
        )

    def test_zero_denominator_in_series(self, tmp_path, capsys):
        path = tmp_path / "zero.series"
        path.write_text("2 0\n3 1/0\n")
        assert run(["annulus", "--series", str(path), "--setting", "equichar0"]) == 2
        assert capsys.readouterr().err == "error: '1/0' has a zero denominator\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 0\n3 1x\n", "line 2: value '1x' is not a rational"),
            ("2 0\nx 0\n", "line 2: exponent 'x' is not an integer"),
            ("1 0\n1 -1\n", "line 2 repeats exponent 1"),
            ("# head\n2 0\n3 1e999999\n", "line 3: value '1e999999' is not a rational"),
            ("2 0 1\n", "line 1: expected 'exponent log_abs'"),
        ],
        ids=["value", "exponent", "repeated", "digits", "shape"],
    )
    def test_series_file_error_names_the_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.series"
        path.write_text(text)
        assert run(["annulus", "--series", str(path), "--setting", "mixed:2:-1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            "annulus --series SERIES --setting mixed:2:1e999999",
            "elliptic --char 0 --res-char 2 --log-p -1 --log-j 1e999999",
        ],
        ids=["setting", "log-j"],
    )
    def test_argument_over_the_digit_limit(self, capsys, argv):
        series = str(FIXTURES / "kummer_p2.series")
        assert run([series if a == "SERIES" else a for a in argv.split()]) == 2
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr() == (
            "", f"error: '1e999999' has more than {limit} digits\n"
        )

    @pytest.mark.parametrize("command", ["rh-check", "stabilize --json"])
    def test_dilation_checked_without_delta(self, tmp_path, capsys, command):
        # over metric graphs, a morphism without delta values is checked for
        # dilation too; it used to load, and stabilize printed the length 7
        data = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
        del data["delta"], data["setting"]
        (edge,) = [e for e in data["source"]["edges"] if e["id"] == "a"]
        edge["length"] = "7"
        err = self._run(tmp_path, capsys, data, argv=command.split())
        assert err == "error: dilation fails on edge a: 1 != 1 * 7\n"

    def test_morphism_not_an_object(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "wb.morphism.json").read_text())
        err = self._run(tmp_path, capsys, [data])
        assert "morphism is not an object" in err

    def test_graph_not_an_object(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, [], argv=("export-dot",))
        assert "graph is not an object" in err

    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize(
        "key, added, message",
        [
            ("vertices", [0], "repeats vertex id {id0!r}"),
            ("edges", [0], "repeats edge id {id0!r}"),
            ("vertices", [7, "7"], "repeats vertex id '7'"),
            ("edges", [7, "7"], "repeats edge id '7'"),
        ],
        ids=["vertex", "edge", "vertex-int-str", "edge-int-str"],
    )
    def test_repeated_id(self, tmp_path, capsys, side, key, added, message):
        """A second entry with an id the graph already has, or ``1`` next
        to ``"1"``, would silently replace the first one."""
        data = json.loads((FIXTURES / "wb.morphism.json").read_text())
        entries = data[side][key]
        first = entries[0]
        for ident in added:
            entries.append(dict(first, id=first["id"] if ident == 0 else ident))
        message = message.format(id0=first["id"])
        assert self._run(tmp_path, capsys, data) == f"error: {side} graph {message}\n"


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("vertex_map", "s'", "morphism vertex_map names unknown vertex 'zz'"),
            ("edge_map", "a'", "morphism edge_map names unknown edge 'zz'"),
            ("n", 2, "morphism n names unknown edge 'zz'"),
            ("sdelta", 0, "morphism sdelta names unknown edge 'zz'"),
            ("delta", "0", "morphism delta names unknown vertex 'zz'"),
        ],
        ids=["vertex_map", "edge_map", "n", "sdelta", "delta"],
    )
    def test_unknown_id(self, tmp_path, capsys, key, value, message):
        """An entry for an id the source graph lacks would be ignored."""
        data = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
        data[key]["zz"] = value
        assert self._run(tmp_path, capsys, data) == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [("rh-check",), ("export-dot",)])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"sdelta": {', '"sdelta": {"a": 5, ', "morphism sdelta repeats key 'a'"),
            ('"delta": {', '"delta": {"s": "-1", ', "morphism delta repeats key 's'"),
            ('"genus": 0', '"genus": 0, "genus": 1', "a JSON object repeats key 'genus'"),
            ('"n": {', '"n": {}, "n": {', "morphism repeats key 'n'"),
        ],
        ids=["sdelta", "delta", "vertex-entry", "document"],
    )
    def test_repeated_key(self, tmp_path, capsys, argv, old, new, message):
        """json.load would keep the last value of a repeated key."""
        text = json.dumps(json.loads((FIXTURES / "wb_metric.morphism.json").read_text()))
        path = tmp_path / "input.json"
        path.write_text(text.replace(old, new, 1))
        assert run([*argv, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [("rh-check",), ("stabilize",), ("export-dot",)])
    @pytest.mark.parametrize("where", ["document", "vertex_map"])
    def test_deep_nesting(self, tmp_path, capsys, argv, where):
        """The decoder's RecursionError is an input error, not a traceback
        with exit code 1 (which would read as a failing verdict)."""
        nested = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "input.json"
        path.write_text(nested if where == "document" else f'{{"vertex_map": {nested}}}')
        assert run([*argv, str(path)]) == 2
        assert capsys.readouterr().err == "error: the JSON document nests too deeply\n"

    @pytest.mark.parametrize(
        "path, message",
        [
            (("n", "zz"), "morphism n value of 'zz' is {}, not a number"),
            (("setting",), "morphism setting {} is not a string"),
            (("source", "vertices", 0), "vertices entry {} is not an object"),
            (("source", "vertices", 0, "id"), "vertices entry id {} is not a string or an integer"),
            (("source", "vertices", 0, "genus"), "vertex s genus {} is not an integer"),
            (("source", "edges", 0, "length"), "edge a length {} is not a string"),
        ],
        ids=["n", "setting", "entry", "id", "genus", "length"],
    )
    def test_long_value_is_cut_in_the_message(self, tmp_path, capsys, path, message):
        """A message echoed a wrong value whole, however long."""
        data = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = json.loads("[" * 300 + "]" * 300)
        shown = "[" * 300 + "]" * 100 + "... (200 more characters)"
        assert self._run(tmp_path, capsys, data) == f"error: {message.format(shown)}\n"

    @pytest.mark.parametrize(
        "fixture, to, message",
        [
            ("wb.morphism.json", "zz", "edge {} has an endpoint outside the vertex set"),
            ("wb.morphism.json", "s", "edge {} is not mapped to a target edge"),
            ("wb_metric.morphism.json", "s", "edge {} lacks key 'length'"),
        ],
        ids=["endpoint", "unmapped", "length"],
    )
    def test_long_id_is_cut_in_the_message(self, tmp_path, capsys, fixture, to, message):
        """A message showed an id whole: 100,044 characters for the first."""
        data = json.loads((FIXTURES / fixture).read_text())
        edge = data["source"]["edges"][0]
        edge["id"], edge["to"] = "e" * 100_000, to
        edge.pop("length", None)
        shown = "e" * 400 + "... (99600 more characters)"
        assert self._run(tmp_path, capsys, data) == f"error: {message.format(shown)}\n"

    def test_value_nested_960_deep_is_cut(self, tmp_path):
        """The echo of a list nested 960 deep was a 1,970-byte error line.  The
        decoder gets this deep only near the bottom of the stack, so the CLI
        runs in a process of its own."""
        text = json.dumps(json.loads((FIXTURES / "wb.morphism.json").read_text()))
        path = tmp_path / "input.json"
        path.write_text(text.replace('"n": {', '"n": {"zz": ' + "[" * 960 + "]" * 960 + ", ", 1))
        proc = subprocess.run(
            [sys.executable, "-m", "wildskel.cli", "rh-check", str(path)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        shown = "[" * 400 + "... (1520 more characters)"
        message = f"error: morphism n value of 'zz' is {shown}, not a number\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    @pytest.mark.parametrize("p, message", [
        ("1", "p must be at least 2, got 1"),  # was exit 0, "radius denominator 0"
        ("0", "morphism has degree 1, expected 0"),
    ])
    def test_radial_p_below_two_is_an_input_error(self, tmp_path, capsys, p, message):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(morphism_to_json_dict(one_edge_identity())))
        for extra in ([], ["--json"]):
            assert run(["radial", str(path), "--p", p, *extra]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_radial_needs_delta_values(self, capsys):
        assert run(["radial", str(FIXTURES / "wb.morphism.json")]) == 2
        captured = capsys.readouterr()
        message = "error: radial needs a metric morphism file with delta values\n"
        assert (captured.out, captured.err) == ("", message)


MUTATED_FIXTURES = {
    path.name: path.read_text() for path in sorted(FIXTURES.glob("*.morphism.json"))
}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([0.5, -1.0, 2.0]),
    st.sampled_from(
        ["", "0", "-1", "1/2", "-1/3", "1/0", "-inf", "inf", "x",
         "equichar0", "equicharP:2", "mixed:2:-1", "mixed:2:1/0"]
    ),
    st.lists(st.sampled_from([0, 1, "a"]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "s"]), st.integers(0, 2), max_size=1),
)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_fixtures_exit_without_traceback(tmp_path_factory, data):
    """One or two values of a bundled morphism file replaced or deleted at
    random, or the whole document replaced by another JSON value."""
    name = data.draw(st.sampled_from(sorted(MUTATED_FIXTURES)))
    doc = json.loads(MUTATED_FIXTURES[name])
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(json_value_paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(JSON_VALUES)
    if data.draw(st.integers(0, 9)) == 0:
        doc = data.draw(JSON_VALUES)
    file = tmp_path_factory.getbasetemp() / "mutated.json"
    file.write_text(json.dumps(doc))
    commands = ["rh-check", "stabilize", "classify-special", "radial", "export-dot"]
    command = data.draw(st.sampled_from(commands))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([command, str(file)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


class TestEllipticSetting:
    """The elliptic flags are validated as a ``ResidueSetting``."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--char 2 --res-char 3", "invalid characteristic pair (2, 3)"),
            ("--char 0 --log-p -1", "equicharacteristic zero carries no log_p"),
            ("--char 2 --log-p -1", "equicharacteristic p carries no log_p"),
            ("--char 0 --res-char 2", "mixed characteristic requires --log-p"),
            ("--char 0 --res-char 2 --log-p=-inf", "log_p must be a strictly negative rational"),
        ],
    )
    def test_invalid_flags_exit_2(self, capsys, flags, message):
        assert run(["elliptic", *flags.split(), "--log-j", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flags", ["--char 3", "--char 0 --res-char 2 --log-p -1", "--char 2"],
                             ids=["tame", "mixed", "wild"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_log_j_minus_inf_is_j_zero(self, capsys, flags, json_flag):
        outputs = []
        for log_j in (["--j-zero"], ["--log-j=-inf"], ["--log-j= -inf "]):
            code = run(["elliptic", *flags.split(), *log_j, *json_flag])
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        assert outputs[0][0] == 0 and outputs[0][1] and not outputs[0][2]
        assert outputs == outputs[:1] * 3


class TestRoundTrips:
    def test_fixture_files_roundtrip(self):
        for path in sorted(FIXTURES.glob("*.morphism.json")):
            data = json.loads(path.read_text())
            obj = morphism_from_json_dict(data)
            again = morphism_to_json_dict(obj)
            assert json.dumps(again, sort_keys=True) == json.dumps(
                data, sort_keys=True
            ), path.name

    def test_fixture_dir_complete(self):
        tags = [t.lower() for t in
                ("TB", "MB", "WB", "TG", "MO", "WO", "MS", "WS", "MSS", "WSS",
                 "ME", "MES")]
        for tag in tags:
            assert (FIXTURES / f"{tag}.morphism.json").exists()
        assert (FIXTURES / "root_subtrees.json").exists()
        assert (FIXTURES / "kummer_p2.series").exists()


class TestDot:
    def test_empty_edge_graph(self):
        g = GenusGraph({"a": 1}, {})
        dot = export_dot(g)
        assert '"g_a"' in dot
        assert "--" not in dot

    def test_morphism_dot_stable(self):
        m = build_special("WB")
        assert export_dot(m) == export_dot(build_special("WB"))
        dot = export_dot(m)
        assert dot.count("--") == 4 + 3  # source edges + target edges
        assert "n=1 sd=0" in dot and "n=2 sd=-1" in dot

    def test_an_object_neither_graph_nor_morphism_is_a_type_error(self):
        with pytest.raises(TypeError, match="^cannot export object as DOT$"):
            export_dot(object())

    def test_parallel_edges_rendered_twice(self):
        g = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b"), "f": ("a", "b")})
        dot = export_dot(g)
        assert dot.count('"g_a" -- "g_b"') == 2

    def test_cli_export(self, capsys):
        assert run(["export-dot", str(FIXTURES / "wb.morphism.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph morphism {")

    def test_quote_and_backslash_in_ids_stay_quoted(self):
        g = GenusGraph({'a"b': 0, "c\\": 1}, {'e"\\': ('a"b', "c\\")})
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        strings = []
        for line in export_dot(g).splitlines()[1:-1]:
            assert '"' not in quoted.sub("", line)
            strings += [re.sub(r"\\(.)", r"\1", q) for q in quoted.findall(line)]
        assert strings == [
            'g_a"b', 'a"b g=0', "g_c\\", "c\\ g=1", 'g_a"b', "g_c\\", 'e"\\'
        ]


#: One call per subcommand that succeeds when stdout can be written.
EVERY_SUBCOMMAND = [
    ["rh-check", str(FIXTURES / "wb.morphism.json")],
    ["stabilize", str(FIXTURES / "wb_subdivided.morphism.json")],
    ["classify-special", str(FIXTURES / "ms.morphism.json")],
    ["enumerate-special"],
    ["metric-lift", "--type", "MS", "--l1", "1/2", "--l3", "1/6", "--setting", "mixed:2:-1"],
    ["elliptic", "--char", "0", "--res-char", "2", "--log-p", "-1", "--log-j", "-4"],
    ["annulus", "--series", str(FIXTURES / "binomial_p2.series"), "--setting", "mixed:2:-1",
     "--domain=-1:0"],
    ["radial", str(FIXTURES / "ms_metric.morphism.json")],
    ["export-dot", str(FIXTURES / "wb.morphism.json")],
]


class TestOutput:
    """What every subcommand does with its output, whatever it computes."""

    def test_every_subcommand_is_listed(self):
        subparsers = build_parser()._subparsers._group_actions[0]
        assert sorted(argv[0] for argv in EVERY_SUBCOMMAND) == sorted(subparsers.choices)

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_broken_pipe_is_an_input_error(self, argv, mode):
        """A stdout that refuses to be written (a closed pipe) is exit 2 and
        one error line, not a traceback."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
            code = run(argv + mode)
        assert (code, err.getvalue()) == (2, f"error: [Errno {errno.EPIPE}] Broken pipe\n")

    def test_a_subcommand_parser_alone_is_the_full_parsers_subparser(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for name in COMMANDS:
            alone = _add_arguments(argparse.ArgumentParser(prog=f"wildskel {name}"), name)
            assert alone.format_help() == subparsers[name].format_help(), name

    def test_export_dot_prints_dot_under_json(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(build_special("WB").source.to_json_dict()))
        for path in (FIXTURES / "wb.morphism.json", graph):
            assert run(["export-dot", str(path)]) == 0
            text = capsys.readouterr()
            assert run(["export-dot", str(path), "--json"]) == 0
            assert capsys.readouterr() == text
            assert text.out.startswith("graph ") and text.err == ""


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up guard: generating dataclass methods and loading ``inspect``
    once made up most of what ``import wildskel.cli`` cost; ``pathlib``
    pulls in ``urllib.parse`` and ``ipaddress``."""
    code = (
        "import sys, wildskel.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


_GRAPH_LAYERS = {"valuation", "pmfunc", "annulus", "genus_graph", "delta_morphism"}
#: the library modules a call of each subcommand loads
LOADS = {
    "rh-check": _GRAPH_LAYERS,
    "stabilize": _GRAPH_LAYERS,
    "export-dot": _GRAPH_LAYERS,
    "classify-special": _GRAPH_LAYERS | {"special"},
    "enumerate-special": _GRAPH_LAYERS | {"special"},
    "metric-lift": _GRAPH_LAYERS | {"special"},
    "elliptic": _GRAPH_LAYERS | {"special", "elliptic"},
    "radial": _GRAPH_LAYERS | {"special", "radial"},
    "annulus": {"valuation", "pmfunc", "annulus"},
}


def _fresh(code, *argv) -> list:
    """The last stdout line of ``code`` run in a fresh ``python -S``, split."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()[-1].split()


#: the wildskel modules loaded, as an argument list for ``print``
_LOADED = "*sorted(m for m in sys.modules if m.startswith('wildskel.'))"


@pytest.mark.parametrize(
    "argv", EVERY_SUBCOMMAND + [EVERY_SUBCOMMAND[6][:-1]],
    ids=[argv[0] for argv in EVERY_SUBCOMMAND] + ["annulus-without-domain"],
)
def test_a_call_loads_only_what_its_subcommand_runs(argv):
    code = (
        "import contextlib, io, sys; from wildskel.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = run(sys.argv[1:])\n"
        f"print(code, {_LOADED})"
    )
    code, *loaded = _fresh(code, *argv)
    assert code == "0"
    assert set(loaded) == {"wildskel.cli"} | {f"wildskel.{m}" for m in LOADS[argv[0]]}


def test_imports_load_no_library_module():
    """``import wildskel`` loads no submodule; ``import wildskel.cli``, neither
    a library module nor ``json``."""
    assert _fresh(f"import sys, wildskel; print({_LOADED})") == []
    loaded = _fresh(f"import sys, wildskel.cli; print('json' in sys.modules, {_LOADED})")
    assert loaded == ["False", "wildskel.cli"]
