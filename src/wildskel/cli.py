"""Command-line front end.

Subcommands: rh-check, stabilize, classify-special, enumerate-special,
metric-lift, elliptic, annulus, radial, export-dot.  Exit code 0 means
success (or a passing verdict), 1 a failing verdict or an unliftable
request, 2 an input error.

Output takes one path: a subcommand computes its result once and returns
``(exit code, JSON payload, text lines)`` without printing; :func:`run`
prints the payload under ``--json`` (export-dot has none and prints DOT in
both modes) and the lines otherwise, inside the ``try`` that turns an
``OSError`` such as a closed pipe into ``error: ...`` and exit 2.

A call loads only what its subcommand runs: each subcommand imports its
library modules, and ``json`` is imported where JSON is read or written.
:func:`run` parses with the named subcommand's parser alone; the full
:func:`build_parser`, built from the same ``COMMANDS`` table, parses when
no subcommand is named and reports arguments left over.
"""

from __future__ import annotations

import argparse
import os
import sys


def _dump(data) -> str:
    import json

    return json.dumps(data, sort_keys=True, indent=2)


def _load_json(path: str):
    """The JSON document in ``path``.  A key repeated in one object (whose
    earlier values ``json.load`` would drop) is an error naming the key,
    and so is nesting too deep for the decoder."""
    import json

    repeats = []  # (object, key), in the order the objects close

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [k for k, _ in pairs]
            repeats.append((obj, next(k for i, k in enumerate(keys) if k in keys[:i])))
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=pairs_hook)
        except RecursionError:
            raise ValueError("the JSON document nests too deeply") from None
    if repeats:
        obj, key = repeats[0]
        name = "a JSON object"
        if isinstance(data, dict) and "vertex_map" in data:  # a morphism
            entries = (f"morphism {k}" for k, v in data.items() if v is obj)
            name = "morphism" if obj is data else next(entries, name)
        raise ValueError(f"{name} repeats key {key!r}")
    return data


def _load_morphism(path: str):
    from .delta_morphism import morphism_from_json_dict

    return morphism_from_json_dict(_load_json(path))


# -- DOT export -----------------------------------------------------------------


def graph_to_dot(
    g: GenusGraph, name: str = "g", indent: str = "", edge_label=str
) -> str:
    def quote(text: str) -> str:
        # ids come from input files: a '"' or a trailing backslash would end it
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = []
    for v in g.vertices:
        node, label = quote(f"{name}_{v}"), quote(f"{v} g={g.genus_of(v)}")
        lines.append(f"{indent}{node} [label={label}];")
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        label = edge_label(e)
        if g.is_metric:
            label += f" l={g.length(e)}"
        tail, head = quote(f"{name}_{u}"), quote(f"{name}_{v}")
        lines.append(f"{indent}{tail} -- {head} [label={quote(label)}];")
    return "\n".join(lines)


def export_dot(obj) -> str:
    """Deterministic DOT text for a graph or a morphism."""
    from .delta_morphism import DeltaMorphism
    from .genus_graph import GenusGraph

    if isinstance(obj, DeltaMorphism):
        def edge_label(e):
            return f"n={obj.mult[e]} sd={obj.sdelta((e, True))}"

        lines = [
            "graph morphism {",
            "  subgraph cluster_source {",
            '    label="source";',
            graph_to_dot(obj.source, "src", "    ", edge_label),
            "  }",
            "  subgraph cluster_target {",
            '    label="target";',
            graph_to_dot(obj.target, "tgt", "    "),
            "  }",
            "}",
        ]
        return "\n".join(lines) + "\n"
    if isinstance(obj, GenusGraph):
        return "graph g {\n" + graph_to_dot(obj, "g", "  ") + "\n}\n"
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")


# -- subcommands ------------------------------------------------------------------


def _cmd_rh_check(args):
    m = _load_morphism(args.file)
    div = m.rh_divisor_identity()
    deg = m.rh_degree_identity()
    payload = {"divisor": div.to_json_dict(), "degree": deg.to_json_dict()}
    lines = [
        f"K_source          = {div.canonical!r}",
        f"pullback K_target = {div.pullback_canonical!r}",
        f"R (ramification)  = {div.ramification!r}",
        f"Delta             = {div.delta!r}",
        f"divisor identity: {'ok' if div.ok else 'VIOLATED'}",
        f"degree identity:  {'ok' if deg.ok else 'VIOLATED'} "
        f"({deg.lhs} = {deg.degree}*(2g'-2) + {deg.r_sum})",
    ]
    return 0 if div.ok and deg.ok else 1, payload, lines


def _cmd_stabilize(args):
    from .delta_morphism import morphism_to_json_dict, stabilize

    result = stabilize(_load_morphism(args.file))
    line = (
        f"stabilized: {len(result.source.vertices)} vertices, "
        f"{len(result.source.edge_ids)} edges over "
        f"{len(result.target.vertices)} vertices"
    )
    return 0, morphism_to_json_dict(result), [line]


def _type_report(t, m) -> dict:
    """The per-type fields of classify-special and enumerate-special."""
    from .special import ramification_signature

    return {
        "type": t.tag,
        "characteristic_class": t.characteristic_class,
        "ramification_signature": list(ramification_signature(m)),
    }


def _cmd_classify_special(args):
    from .special import classify_special, is_special, metric_lengths

    m = _load_morphism(args.file)
    check = is_special(m)
    if not check:
        reason = check.reason
        return 1, {"special": False, "reason": reason}, [f"not special: {reason}"]
    t = classify_special(m)
    report = {"special": True, **_type_report(t, m)}
    line = (
        f"type {t.tag} ({t.characteristic_class}); ramification "
        f"signature {report['ramification_signature']}"
    )
    if m.setting is not None:
        report["lengths"] = metric_lengths(m).to_json_dict()
        line += f"; lengths {report['lengths']}"
    return 0, report, [line]


def _cmd_enumerate_special(args):
    from .delta_morphism import morphism_to_json_dict
    from .special import enumerate_root_subtrees, enumerate_special

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
    reports = [{**_type_report(t, m), "liftable": t.liftable} for t, m in pairs]
    lines = [
        f"{r['type']:3}  {r['characteristic_class']:5}  "
        f"R={r['ramification_signature']}  "
        + ("liftable" if r["liftable"] else "exceptional")
        for r in reports
    ]
    lines.append(f"total: {len(reports)}")
    return 0, reports, lines


def _cmd_metric_lift(args):
    from .delta_morphism import morphism_to_json_dict
    from .special import Lengths, UnliftableError, metric_lift
    from .valuation import ResidueSetting

    setting = ResidueSetting.parse(args.setting)
    try:
        mm = metric_lift(args.type, Lengths(args.l0, args.l1, args.l3), setting)
    except UnliftableError as exc:
        return 1, {"ok": False, "reason": str(exc)}, [f"unliftable: {exc}"]
    line = f"lifted {args.type}: delta values " + ", ".join(
        f"{v}={d}" for v, d in sorted(mm.delta.items())
    )
    return 0, morphism_to_json_dict(mm), [line]


def _cmd_elliptic(args):
    from .elliptic import EllipticInput, classify_elliptic
    from .valuation import ResidueSetting

    if args.char == 0 and args.res_char not in (0, None) and args.log_p is None:
        raise ValueError("mixed characteristic requires --log-p")
    setting = ResidueSetting(args.char, args.res_char or args.char, args.log_p)
    if args.j_zero:
        inp = EllipticInput.j_zero(setting)
    else:
        inp = EllipticInput.of(setting, args.log_j)
    report = classify_elliptic(inp)
    t = report.type
    line = (
        f"type {t.tag} ({t.characteristic_class}); reduction "
        f"{report.reduction}/{report.reduction_fiber}; "
        f"l0={report.lengths.l0} l1={report.lengths.l1} l3={report.lengths.l3}"
    )
    return 0, report.to_json_dict(), [line]


def _cmd_annulus(args):
    from .annulus import ValuedSeries, different_profile, different_report, normalize
    from .valuation import ResidueSetting

    with open(args.series, "r", encoding="utf-8") as fh:
        series = ValuedSeries.from_text(fh.read())
    setting = ResidueSetting.parse(args.setting)
    series = normalize(series)
    report = different_report(series, setting)
    payload = report.to_json_dict()
    lines = [
        f"m={report.m} n={report.n} log_delta={report.log_delta} "
        f"s={report.slope_s}"
    ]
    if args.domain is not None:
        lo, hi = args.domain.split(":")
        profile = different_profile(series, setting, (lo, hi))
        payload["profile"] = profile.to_json_dict()
        lines.append(f"profile: {payload['profile']}")
    return 0, payload, lines


def _cmd_radial(args):
    from .radial import degree_p_locus, radial_vs_ball

    mm = _load_morphism(args.file)
    if mm.setting is None:
        raise ValueError("radial needs a metric morphism file with delta values")
    desc = degree_p_locus(mm, args.p)
    strict = radial_vs_ball(desc)
    payload = desc.to_json_dict()
    payload["strictness"] = strict.to_json_dict()
    lines = [
        f"center: {len(desc.center.vertices)} vertices, "
        f"{len(desc.center.edge_ids)} edges; radius denominator "
        f"{desc.denominator}"
    ]
    if strict.strict:
        lines.append(f"radial set is STRICTLY smaller than the ball "
                     f"(witness edge {strict.witness_edge})")
    else:
        lines.append("radial set equals the metric ball")
    return 0, payload, lines


def _cmd_export_dot(args):
    from .delta_morphism import morphism_from_json_dict
    from .genus_graph import GenusGraph

    data = _load_json(args.file)
    if isinstance(data, dict) and "vertex_map" in data:
        obj = morphism_from_json_dict(data)
    else:
        obj = GenusGraph.from_json_dict(data)
    # DOT in both modes: no payload
    return 0, None, [export_dot(obj).removesuffix("\n")]


_MORPHISM_FILE = ("file", {"help": "morphism JSON file"})

#: name: (function, help, arguments).  An argument is ``(flag, keywords)``
#: for ``add_argument``; a tuple of arguments is a required choice of one.
COMMANDS = {
    "rh-check": (_cmd_rh_check, "verify both Riemann-Hurwitz identities", [_MORPHISM_FILE]),
    "stabilize": (_cmd_stabilize, "contract a morphism until stable", [_MORPHISM_FILE]),
    "classify-special": (_cmd_classify_special, "check and classify a special morphism",
                         [_MORPHISM_FILE]),
    "enumerate-special": (_cmd_enumerate_special, "list the twelve special types", [
        ("--fixtures", {"metavar": "DIR", "help": "write the shapes as morphism JSON fixtures"}),
    ]),
    "metric-lift": (_cmd_metric_lift, "lift a type to a metric morphism", [
        ("--type", {"required": True}),
        ("--l0", {"default": "0"}),
        ("--l1", {"default": "0"}),
        ("--l3", {"default": "0"}),
        ("--setting", {"required": True, "help": "equichar0 | equicharP:p | mixed:p:logp"}),
    ]),
    "elliptic": (_cmd_elliptic, "skeleton type of a genus-one double cover", [
        ("--char", {"type": int, "required": True}),
        ("--res-char", {"type": int}),
        ("--log-p", {}),
        (("--log-j", {}), ("--j-zero", {"action": "store_true"})),
    ]),
    "annulus": (_cmd_annulus, "different report of a valued series", [
        ("--series", {"required": True, "help": "series file (lines: i log_abs)"}),
        ("--setting", {"required": True}),
        ("--domain", {"help": "profile domain as lo:hi"}),
    ]),
    "radial": (_cmd_radial, "radial ramification locus of a metric morphism", [
        ("file", {"help": "metric morphism JSON file"}),
        ("--p", {"type": int, "default": 2}),
    ]),
    "export-dot": (_cmd_export_dot, "DOT text for a graph or morphism",
                   [("file", {"help": "graph or morphism JSON file"})]),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the arguments of subcommand ``name``."""
    fn, _, arguments = COMMANDS[name]
    parser.add_argument("--json", action="store_true", help="machine output")
    parser.set_defaults(fn=fn)
    for argument in arguments:
        if isinstance(argument[0], str):
            parser.add_argument(argument[0], **argument[1])
        else:
            group = parser.add_mutually_exclusive_group(required=True)
            for flag, keywords in argument:
                group.add_argument(flag, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildskel",
        description="Exact different-function calculus on skeletons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in COMMANDS:  # the subcommand's own parser, as build_parser makes it
        parser = _add_arguments(argparse.ArgumentParser(prog=f"wildskel {name}"), name)
        args, rest = parser.parse_known_args(argv[1:])
    if name not in COMMANDS or rest:
        # the full parser names no or an unknown subcommand, and it is the
        # one that reports arguments the subcommand leaves over
        args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
        if args.json and payload is not None:
            print(_dump(payload))
        else:
            print(*lines, sep="\n")
        return code
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
