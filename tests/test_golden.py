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
``golden/special_search.json`` pins the descriptions of
``enumerate_root_subtrees(k)`` for k = 1 to 4.  It also held the key of
every candidate shape of the search that ``enumerate_special`` once ran;
the search is gone, and the census of ``tests/test_census.py`` checks
that the twelve shapes are complete.
``golden/stabilize.json`` holds the sha256 of the sorted JSON of
``stabilize(m)`` on every morphism of ``tests.support.stabilize_corpus``,
and ``golden/proper_errors.json`` the exception type and message (or
``null``) of the ``DeltaMorphism`` constructor on 2,000 seeded mutations
of proper morphisms; ``golden/load_errors.json`` holds the same for
``morphism_from_json_dict`` on 2,000 seeded mutations of the morphism
fixtures, which pins the loader's messages and their precedence.
``golden/admissibility.json`` holds the verdict
(``ok`` and reason) of ``check_restriction`` on every multiplicity 1 to 8,
slope -5 to 5 and a set of delta values that contains -inf, 0, ``|m|`` and
``|m+s|``, in six residue settings, and its two ``ValueError`` messages.
``golden/value_json.json`` holds, for the instance of every value class
that ``tests.support.BUILDERS`` makes, its truth and, where the class
has one, its ``to_json_dict()``; it was recorded while each class still
wrote both by hand.  ``golden/text_cli.json`` holds the stdout, stderr and
exit code of the outputs the goldens above leave open: ``annulus`` on both
series in five residue settings, in text and JSON mode, with and without
``--domain``; ``elliptic`` in text mode across its case split; and
``classify-special`` in text mode on the metric fixtures.
``golden/usage_cli.json`` holds the same for argparse's help and usage
errors (``tools/record_goldens.py:usage_cli_argvs``) at ``COLUMNS=80``.
``tools/record_goldens.py`` re-records these seven.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from wildskel.annulus import ValuedSeries, different_profile, normalize
from wildskel.cli import run
from wildskel.delta_morphism import (
    morphism_from_json_dict,
    morphism_to_json_dict,
    stabilize,
)
from wildskel.pmfunc import PMFunction
from wildskel.special import enumerate_root_subtrees
from wildskel.valuation import INF, ResidueSetting, parse_ratio

from tests.support import FIXTURES, stabilize_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ANNULUS_GOLDEN = json.loads((GOLDEN / "annulus.json").read_text())
METRIC_CLI_GOLDEN = json.loads((GOLDEN / "metric_cli.json").read_text())
SPECIAL_CLI_GOLDEN = json.loads((GOLDEN / "special_cli.json").read_text())
TEXT_CLI_GOLDEN = json.loads((GOLDEN / "text_cli.json").read_text())
USAGE_CLI_GOLDEN = json.loads((GOLDEN / "usage_cli.json").read_text())
SPECIAL_SEARCH_GOLDEN = json.loads((GOLDEN / "special_search.json").read_text())
STABILIZE_GOLDEN = json.loads((GOLDEN / "stabilize.json").read_text())
PROPER_ERRORS_GOLDEN = json.loads((GOLDEN / "proper_errors.json").read_text())
LOAD_ERRORS_GOLDEN = json.loads((GOLDEN / "load_errors.json").read_text())


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
        ends = (parse_ratio(part, "inf") for part in domain.split(":"))
        lo, hi = (end if end is INF else Fraction(*end) for end in ends)
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


@pytest.fixture(scope="module")
def record_goldens():
    return _load_tool("record_goldens")


@pytest.mark.parametrize(
    "case", SPECIAL_CLI_GOLDEN, ids=lambda case: " ".join(case["argv"])
)
def test_special_cli_output(case, record_goldens):
    assert record_goldens.cli_outcome(case["argv"]) == case


@pytest.mark.parametrize("case", TEXT_CLI_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_text_cli_output(case, record_goldens):
    assert record_goldens.cli_outcome(case["argv"]) == case


@pytest.mark.parametrize("case", USAGE_CLI_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_usage_cli_output(case, record_goldens, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert record_goldens.cli_outcome(case["argv"]) == case


def test_usage_cli_golden_lists_its_argvs(record_goldens):
    assert [case["argv"] for case in USAGE_CLI_GOLDEN] == record_goldens.usage_cli_argvs()


def test_special_search():
    trees = {
        str(k): [t.describe() for t in enumerate_root_subtrees(k)] for k in range(1, 5)
    }
    assert {"root_subtrees": trees} == SPECIAL_SEARCH_GOLDEN


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stabilize_golden():
    sha256 = _load_tool("record_goldens").sorted_json_sha256
    got = {}
    for group, m in stabilize_corpus():
        out = stabilize(m)
        back = morphism_from_json_dict(morphism_to_json_dict(out))
        assert type(back) is type(out) and vars(back) == vars(out)
        got.setdefault(group, []).append(sha256(out))
    assert got == STABILIZE_GOLDEN


def test_proper_errors_golden():
    assert _load_tool("record_goldens").proper_errors() == PROPER_ERRORS_GOLDEN


def test_load_errors_golden():
    assert _load_tool("record_goldens").load_errors() == LOAD_ERRORS_GOLDEN


def test_admissibility_golden():
    path = GOLDEN / "admissibility.json"
    assert _load_tool("record_goldens").admissibility_text() == path.read_text()


def test_value_json_golden():
    path = GOLDEN / "value_json.json"
    text = json.dumps(_load_tool("record_goldens").value_json(), indent=1) + "\n"
    assert text == path.read_text()


def test_regenerated_fixtures_are_byte_identical(tmp_path):
    _load_tool("gen_fixtures").main([str(tmp_path)])
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
