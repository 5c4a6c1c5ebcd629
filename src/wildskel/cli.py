"""Command-line front end.

Subcommands: rh-check, stabilize, classify-special, enumerate-special,
metric-lift, elliptic, annulus, radial, export-dot.  Exit code 0 means
success (or a passing verdict), 1 a failing verdict or an unliftable
request, 2 an input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import annulus as annulus_mod
from . import radial as radial_mod
from .annulus import ValuedSeries, different_profile, different_report, normalize
from .delta_morphism import (
    DeltaMorphism,
    morphism_from_json_dict,
    morphism_to_json_dict,
    stabilize,
)
from .elliptic import EllipticInput, classify_elliptic
from .genus_graph import GenusGraph
from .special import (
    Lengths,
    UnliftableError,
    classify_special,
    enumerate_root_subtrees,
    enumerate_special,
    is_special,
    metric_lengths,
    metric_lift,
    ramification_signature,
)
from .valuation import LogAbs, ResidueSetting


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _load_morphism(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return morphism_from_json_dict(json.load(fh))


# -- DOT export -----------------------------------------------------------------


def graph_to_dot(
    g: GenusGraph, name: str = "g", indent: str = "", edge_label=str
) -> str:
    lines = []
    for v in g.vertices:
        lines.append(f'{indent}"{name}_{v}" [label="{v} g={g.genus_of(v)}"];')
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        label = edge_label(e)
        if g.is_metric:
            label += f" l={g.length(e)}"
        lines.append(f'{indent}"{name}_{u}" -- "{name}_{v}" [label="{label}"];')
    return "\n".join(lines)


def export_dot(obj) -> str:
    """Deterministic DOT text for a graph or a morphism."""
    if isinstance(obj, DeltaMorphism):
        lines = ["graph morphism {"]
        lines.append("  subgraph cluster_source {")
        lines.append('    label="source";')
        lines.append(
            graph_to_dot(
                obj.source,
                "src",
                "    ",
                lambda e: f"n={obj.mult[e]} sd={obj.sdelta_stored(e)}",
            )
        )
        lines.append("  }")
        lines.append("  subgraph cluster_target {")
        lines.append('    label="target";')
        lines.append(graph_to_dot(obj.target, "tgt", "    "))
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, GenusGraph):
        return "graph g {\n" + graph_to_dot(obj, "g", "  ") + "\n}\n"
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")


# -- subcommands ------------------------------------------------------------------


def _cmd_rh_check(args) -> int:
    m = _load_morphism(args.file)
    div = m.rh_divisor_identity()
    deg = m.rh_degree_identity()
    if args.json:
        print(_dump({"divisor": div.to_json_dict(), "degree": deg.to_json_dict()}))
    else:
        print(f"K_source          = {div.canonical!r}")
        print(f"pullback K_target = {div.pullback_canonical!r}")
        print(f"R (ramification)  = {div.ramification!r}")
        print(f"Delta             = {div.delta!r}")
        print(f"divisor identity: {'ok' if div.ok else 'VIOLATED'}")
        print(
            f"degree identity:  {'ok' if deg.ok else 'VIOLATED'} "
            f"({deg.lhs} = {deg.degree}*(2g'-2) + {deg.r_sum})"
        )
    return 0 if div.ok and deg.ok else 1


def _cmd_stabilize(args) -> int:
    result = stabilize(_load_morphism(args.file))
    if args.json:
        print(_dump(morphism_to_json_dict(result)))
    else:
        print(
            f"stabilized: {len(result.source.vertices)} vertices, "
            f"{len(result.source.edge_ids)} edges over "
            f"{len(result.target.vertices)} vertices"
        )
    return 0


def _cmd_classify_special(args) -> int:
    m = _load_morphism(args.file)
    check = is_special(m)
    if not check:
        if args.json:
            print(_dump({"special": False, "reason": check.reason}))
        else:
            print(f"not special: {check.reason}")
        return 1
    t = classify_special(m)
    report = {
        "special": True,
        "type": t.tag,
        "characteristic_class": t.characteristic_class,
        "ramification_signature": list(ramification_signature(m)),
    }
    if m.delta is not None:
        report["lengths"] = metric_lengths(m).to_json_dict()
    if args.json:
        print(_dump(report))
    else:
        line = (
            f"type {t.tag} ({t.characteristic_class}); ramification "
            f"signature {report['ramification_signature']}"
        )
        if "lengths" in report:
            line += f"; lengths {report['lengths']}"
        print(line)
    return 0


def _cmd_enumerate_special(args) -> int:
    pairs = enumerate_special()
    if args.fixtures:
        os.makedirs(args.fixtures, exist_ok=True)
        files = [
            (f"{t.tag.lower()}.morphism.json", morphism_to_json_dict(m))
            for t, m in pairs
        ]
        trees = [t.to_json_dict() for t in enumerate_root_subtrees(4)]
        files.append(("root_subtrees.json", trees))
        for name, data in files:
            path = os.path.join(args.fixtures, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_dump(data) + "\n")
    if args.json:
        print(
            _dump(
                [
                    {
                        "type": t.tag,
                        "characteristic_class": t.characteristic_class,
                        "ramification_signature": list(ramification_signature(m)),
                        "liftable": t.liftable,
                    }
                    for t, m in pairs
                ]
            )
        )
    else:
        for t, m in pairs:
            sig = ramification_signature(m)
            lift = "liftable" if t.liftable else "exceptional"
            print(f"{t.tag:3}  {t.characteristic_class:5}  R={list(sig)}  {lift}")
        print(f"total: {len(pairs)}")
    return 0


def _cmd_metric_lift(args) -> int:
    setting = ResidueSetting.parse(args.setting)
    lengths = Lengths(
        Fraction(args.l0), Fraction(args.l1), Fraction(args.l3)
    )
    try:
        mm = metric_lift(args.type, lengths, setting)
    except UnliftableError as exc:
        if args.json:
            print(_dump({"ok": False, "reason": str(exc)}))
        else:
            print(f"unliftable: {exc}")
        return 1
    if args.json:
        print(_dump(morphism_to_json_dict(mm)))
    else:
        print(
            f"lifted {args.type}: delta values "
            + ", ".join(f"{v}={d}" for v, d in sorted(mm.delta.items()))
        )
    return 0


def _cmd_elliptic(args) -> int:
    if args.char == 0 and args.res_char not in (0, None) and args.log_p is None:
        print("error: mixed characteristic requires --log-p", file=sys.stderr)
        return 2
    log_p = None if args.log_p is None else LogAbs(args.log_p)
    setting = ResidueSetting(args.char, args.res_char or args.char, log_p)
    if args.j_zero:
        inp = EllipticInput.j_zero(setting)
    else:
        inp = EllipticInput.of(setting, Fraction(args.log_j))
    report = classify_elliptic(inp)
    if args.json:
        print(_dump(report.to_json_dict()))
    else:
        t = report.type
        print(
            f"type {t.tag} ({t.characteristic_class}); reduction "
            f"{report.reduction}/{report.reduction_fiber}; "
            f"l0={report.lengths.l0} l1={report.lengths.l1} l3={report.lengths.l3}"
        )
    return 0


def _cmd_annulus(args) -> int:
    with open(args.series, "r", encoding="utf-8") as fh:
        series = ValuedSeries.from_text(fh.read())
    setting = ResidueSetting.parse(args.setting)
    series = normalize(series) if not annulus_mod.is_normalized(series) else series
    report = different_report(series, setting)
    payload = report.to_json_dict()
    if args.domain:
        lo, hi = (Fraction(part) for part in args.domain.split(":"))
        profile = different_profile(series, setting, (lo, hi))
        payload["profile"] = profile.to_json_dict()
    if args.json:
        print(_dump(payload))
    else:
        print(
            f"m={report.m} n={report.n} log_delta={report.log_delta} "
            f"s={report.slope_s}"
        )
        if args.domain:
            print(f"profile: {payload['profile']}")
    return 0


def _cmd_radial(args) -> int:
    mm = _load_morphism(args.file)
    if mm.delta is None:
        print(
            "error: radial needs a metric morphism file with delta values",
            file=sys.stderr,
        )
        return 2
    desc = radial_mod.degree_p_locus(mm, args.p)
    strict = radial_mod.radial_vs_ball(desc)
    payload = desc.to_json_dict()
    payload["strictness"] = strict.to_json_dict()
    if args.json:
        print(_dump(payload))
    else:
        print(
            f"center: {len(desc.center.vertices)} vertices, "
            f"{len(desc.center.edge_ids)} edges; radius denominator "
            f"{desc.denominator}"
        )
        if strict.strict:
            print(f"radial set is STRICTLY smaller than the ball "
                  f"(witness edge {strict.witness_edge})")
        else:
            print("radial set equals the metric ball")
    return 0


def _cmd_export_dot(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "vertex_map" in data:
        obj = morphism_from_json_dict(data)
    else:
        obj = GenusGraph.from_json_dict(data)
    sys.stdout.write(export_dot(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildskel",
        description="Exact different-function calculus on skeletons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine output")
        p.set_defaults(fn=fn)
        return p

    p = add("rh-check", _cmd_rh_check, help="verify both Riemann-Hurwitz identities")
    p.add_argument("file", help="morphism JSON file")

    p = add("stabilize", _cmd_stabilize, help="contract a morphism until stable")
    p.add_argument("file", help="morphism JSON file")

    p = add("classify-special", _cmd_classify_special,
            help="check and classify a special morphism")
    p.add_argument("file", help="morphism JSON file")

    p = add("enumerate-special", _cmd_enumerate_special,
            help="list the twelve special types")
    p.add_argument("--fixtures", metavar="DIR",
                   help="write the shapes as morphism JSON fixtures")

    p = add("metric-lift", _cmd_metric_lift, help="lift a type to a metric morphism")
    p.add_argument("--type", required=True)
    p.add_argument("--l0", default="0")
    p.add_argument("--l1", default="0")
    p.add_argument("--l3", default="0")
    p.add_argument("--setting", required=True,
                   help="equichar0 | equicharP:p | mixed:p:logp")

    p = add("elliptic", _cmd_elliptic, help="skeleton type of a genus-one double cover")
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--res-char", type=int, default=None)
    p.add_argument("--log-p", default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--log-j", default=None)
    group.add_argument("--j-zero", action="store_true")

    p = add("annulus", _cmd_annulus, help="different report of a valued series")
    p.add_argument("--series", required=True, help="series file (lines: i log_abs)")
    p.add_argument("--setting", required=True)
    p.add_argument("--domain", default=None, help="profile domain as lo:hi")

    p = add("radial", _cmd_radial, help="radial ramification locus of a metric morphism")
    p.add_argument("file", help="metric morphism JSON file")
    p.add_argument("--p", type=int, default=2)

    p = add("export-dot", _cmd_export_dot, help="DOT text for a graph or morphism")
    p.add_argument("file", help="graph or morphism JSON file")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
