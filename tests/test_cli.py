import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wildskel.cli import export_dot, run
from wildskel.delta_morphism import morphism_from_json_dict, morphism_to_json_dict
from wildskel.genus_graph import GenusGraph
from wildskel.special import build_special

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


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

    def test_metric_lift_unliftable(self, capsys):
        code = run(["metric-lift", "--type", "ME", "--setting", "mixed:2:-1"])
        assert code == 1
        assert "exceptional" in capsys.readouterr().out

    def test_classify_not_special(self, tmp_path, capsys):
        g = GenusGraph({"a": 1, "b": 0}, {"e": ("a", "b")})
        from tests.test_delta_morphism import identity_morphism

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

        from tests.support import subdivide_metric

        mm = morphism_from_json_dict(
            json.loads((FIXTURES / "ms_metric.morphism.json").read_text())
        )
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
        from tests.test_delta_morphism import HYBRID_KUMMER

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

    def test_morphism_not_an_object(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "wb.morphism.json").read_text())
        err = self._run(tmp_path, capsys, [data])
        assert "morphism is not an object" in err

    def test_graph_not_an_object(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, [], argv=("export-dot",))
        assert "graph is not an object" in err


class TestEllipticSetting:
    """The elliptic flags are validated as a ``ResidueSetting``."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--char 2 --res-char 3", "invalid characteristic pair (2, 3)"),
            ("--char 0 --log-p -1", "equicharacteristic zero carries no log_p"),
            ("--char 2 --log-p -1", "equicharacteristic p carries no log_p"),
            ("--char 0 --res-char 2", "mixed characteristic requires --log-p"),
        ],
    )
    def test_invalid_flags_exit_2(self, capsys, flags, message):
        assert run(["elliptic", *flags.split(), "--log-j", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


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

    def test_parallel_edges_rendered_twice(self):
        g = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b"), "f": ("a", "b")})
        dot = export_dot(g)
        assert dot.count('"g_a" -- "g_b"') == 2

    def test_cli_export(self, capsys):
        assert run(["export-dot", str(FIXTURES / "wb.morphism.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph morphism {")


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up guard: generating dataclass methods and loading ``inspect``
    once made up most of what ``import wildskel.cli`` cost."""
    code = (
        "import sys, wildskel.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
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
