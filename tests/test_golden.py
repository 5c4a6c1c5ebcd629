"""Byte-identity of outputs against committed goldens and fixtures.

``golden/annulus.json`` holds, for the two bundled series under the three
residue settings, the stdout, stderr and exit code of
``wildskel annulus --json --domain=-2:1`` and the JSON of
``different_profile`` on a finite, an unbounded and a one-point domain
(or the error it raises).  ``golden/metric_cli.json`` holds the stdout
and exit code of ``export-dot``, ``rh-check --json``,
``classify-special --json`` and ``radial --json`` on the three metric
fixtures, and of ``metric-lift --json`` for MS.  ``golden/special_cli.json``
holds the stdout, stderr and exit code of ``classify-special --json`` on
the twelve plain fixtures, ``enumerate-special`` in text and JSON,
``elliptic --json`` across its case split in five residue settings, and
``metric-lift --json`` for every tag (and an unknown one) in the tame,
wild and mixed settings with zero, all-one and fitting lengths.  The
fixture test regenerates ``fixtures/`` with ``tools/gen_fixtures.py``
into a temporary directory and compares every file byte for byte.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from wildskel.annulus import ValuedSeries, different_profile, normalize
from wildskel.cli import run
from wildskel.delta_morphism import morphism_from_json_dict
from wildskel.pmfunc import PMFunction
from wildskel.valuation import INF, ResidueSetting, parse_length

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
ANNULUS_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "annulus.json").read_text()
)
METRIC_CLI_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "metric_cli.json").read_text()
)
SPECIAL_CLI_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "special_cli.json").read_text()
)


def _case_id(case):
    return f"{case['series']}-{case['setting']}"


@pytest.mark.parametrize("case", ANNULUS_GOLDEN, ids=_case_id)
def test_annulus_cli_stdout(case, capsys):
    series = FIXTURES / f"{case['series']}.series"
    code = run(
        [
            "annulus",
            "--series",
            str(series),
            "--setting",
            case["setting"],
            "--json",
            f"--domain={case['cli_domain']}",
        ]
    )
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


@pytest.mark.parametrize("case", ANNULUS_GOLDEN, ids=_case_id)
def test_different_profile_json(case):
    text = (FIXTURES / f"{case['series']}.series").read_text()
    series = normalize(ValuedSeries.from_text(text))
    setting = ResidueSetting.parse(case["setting"])
    for domain, expected in case["profiles"].items():
        lo, hi = (parse_length(part) for part in domain.split(":"))
        try:
            got = different_profile(series, setting, (lo, hi)).to_json_dict()
        except ValueError as exc:
            got = {"error": f"{type(exc).__name__}: {exc}"}
        assert got == expected, domain


@pytest.mark.parametrize(
    "case", METRIC_CLI_GOLDEN, ids=lambda case: " ".join(case["argv"])
)
def test_metric_cli_stdout(case, capsys):
    argv = [a.replace("{fixtures}", str(FIXTURES)) for a in case["argv"]]
    code = run(argv)
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


@pytest.mark.parametrize(
    "case", SPECIAL_CLI_GOLDEN, ids=lambda case: " ".join(case["argv"])
)
def test_special_cli_output(case, capsys):
    argv = [a.replace("{fixtures}", str(FIXTURES)) for a in case["argv"]]
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


def _load_gen_fixtures():
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", ROOT / "tools" / "gen_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regenerated_fixtures_are_byte_identical(tmp_path):
    _load_gen_fixtures().main([str(tmp_path)])
    committed = sorted(p.name for p in FIXTURES.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name

    # the metric fixtures, read back, give delta profiles that run from
    # the stored delta at the finite end to the stored delta at the other
    for path in sorted(tmp_path.glob("*_metric.morphism.json")):
        mm = morphism_from_json_dict(json.loads(path.read_text()))
        for e in mm.source.edge_ids:
            u, v = mm.source.endpoints(e)
            if mm.delta[u].is_neg_inf:
                u, v = v, u
            prof = mm.delta_profile(e)
            assert PMFunction.from_json_dict(prof.to_json_dict()) == prof
            assert prof.value_at(0) == mm.delta[u].value
            length = mm.source.length(e)
            if length is not INF:
                assert prof.value_at(length) == mm.delta[v].value
