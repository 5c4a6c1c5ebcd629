"""Independent correctness oracles, one per workload.

Each oracle recomputes what a workload item returned from the item's
input, with its own arithmetic, and raises :class:`Mismatch` on the first
disagreement.  None of them calls wildskel: they see only the plain
values the item handed back.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from gen import expected_type, log2_of


class Mismatch(AssertionError):
    """A program result disagrees with the oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _nonzero(d: Dict[str, int]) -> Dict[str, int]:
    return {k: v for k, v in d.items() if v != 0}


# -- rh_corpus -------------------------------------------------------------------


def rh_expected(m: dict, divisor: Dict[str, int]) -> dict:
    """K, pullback K', R, Delta, both RH sides and the pullback degree."""
    sgen = {v["id"]: v["genus"] for v in m["source"]["vertices"]}
    tgen = {v["id"]: v["genus"] for v in m["target"]["vertices"]}
    sends = {e["id"]: (e["from"], e["to"]) for e in m["source"]["edges"]}
    tends = {e["id"]: (e["from"], e["to"]) for e in m["target"]["edges"]}
    vmap, emap, n, sd = m["vertex_map"], m["edge_map"], m["n"], m["sdelta"]

    def valence(ends, v):
        return sum((a == v) + (b == v) for a, b in ends.values())

    # local multiplicity: the source mass over one target branch at the image
    vmult = {}
    for v in sgen:
        v2 = vmap[v]
        f = min(f for f, ends in tends.items() if v2 in ends)
        vmult[v] = sum(
            n[e] * ((a == v) + (b == v))
            for e, (a, b) in sends.items()
            if emap[e] == f
        )
    degree = {sum(vmult[v] for v in sgen if vmap[v] == v2) for v2 in tgen}
    expect(len(degree) == 1, "oracle: fiber masses differ")
    (deg,) = degree

    k = {v: valence(sends, v) + 2 * sgen[v] - 2 for v in sgen}
    k2 = {v: valence(tends, v) + 2 * tgen[v] - 2 for v in tgen}
    pk = {v: k2[vmap[v]] * vmult[v] for v in sgen}
    delta = {v: 0 for v in sgen}
    slope_sum = {v: 0 for v in sgen}
    for e, (a, b) in sends.items():
        # oriented away from a the slope is sd[e], away from b it is -sd[e]
        for end, s in ((a, sd[e]), (b, -sd[e])):
            delta[end] -= s
            slope_sum[end] += -s + n[e] - 1
    chi = {
        v: 2 * sgen[v] - 2 - vmult[v] * (2 * tgen[vmap[v]] - 2) for v in sgen
    }
    r = {v: chi[v] - slope_sum[v] for v in sgen}

    def genus(gen, ends):
        return len(ends) - len(gen) + 1 + sum(gen.values())

    return {
        "canonical": _nonzero(k),
        "pullback_canonical": _nonzero(pk),
        "ramification": _nonzero(r),
        "delta": _nonzero(delta),
        "divisor_ok": all(k[v] == pk[v] + r[v] + delta[v] for v in sgen),
        "lhs": 2 * genus(sgen, sends) - 2,
        "rhs": deg * (2 * genus(tgen, tends) - 2) + sum(r.values()),
        "degree": deg,
        "r_sum": sum(r.values()),
        "pullback_degree": deg * sum(divisor.values()),
    }


def check_rh(inp, out: dict) -> None:
    m, divisor = inp
    want = rh_expected(m, divisor)
    div, deg = out["divisor"], out["degree"]
    for key in ("canonical", "pullback_canonical", "ramification", "delta"):
        expect(div[key] == want[key], f"rh: {key} differs")
    expect(div["ok"] == want["divisor_ok"] and div["ok"], "rh: divisor verdict")
    expect(not div["mismatched_vertices"], "rh: mismatched vertices reported")
    for key in ("lhs", "rhs", "degree", "r_sum"):
        expect(deg[key] == want[key], f"rh: degree identity {key} differs")
    expect(deg["ok"] and want["lhs"] == want["rhs"], "rh: degree verdict")
    expect(out["delta_degree"] == 0, "rh: deg Delta != 0")
    expect(out["pullback_degree"] == want["pullback_degree"], "rh: deg pullback")


# -- annulus_oracle --------------------------------------------------------------

GRID_DEN = 25
GRID_NUMS = tuple(range(-50, 0))  # x = k/25 in [-2, 0)
DOMAIN = (Fraction(-2), Fraction(1))


def _int_abs(setting: str, k: int):
    """log|k| as a Fraction, or None for log 0."""
    if k == 0:
        return None
    parts = setting.split(":")
    if parts[0] == "equichar0":
        return Fraction(0)
    p = int(parts[1])
    if parts[0] == "equicharP":
        return None if k % p == 0 else Fraction(0)
    v = 0
    k = abs(k)
    while k % p == 0:
        k //= p
        v += 1
    return Fraction(parts[2]) * v


def admissible(m: int, s: int, delta: Fraction, setting: str) -> bool:
    """|m+s| >= delta >= |m| with the one-sided slope conditions."""
    upper, lower = _int_abs(setting, m + s), _int_abs(setting, m)
    parts = setting.split(":")
    if parts[0] != "equichar0" and parts[1] == "2" and m % 4 == 2 and s and s % 2 == 0:
        return False
    if upper is None or upper < delta:
        return False
    if lower is not None and delta < lower:
        return False
    if delta == upper and s > 0:
        return False
    if delta == lower and s < 0:
        return False
    return True


class _Envelopes:
    """T(h) and T(h') over one common denominator, as integer lines."""

    def __init__(self, series: Dict[int, Fraction], setting: str):
        deriv = {}
        for i, v in series.items():
            scale = _int_abs(setting, i)
            if scale is not None:
                deriv[i - 1] = v + scale
        self.den = lcm(*[v.denominator for v in series.values()],
                       *[v.denominator for v in deriv.values()], 1)
        self.h = [(i, int(v * self.den)) for i, v in series.items()]
        self.d = [(i, int(v * self.den)) for i, v in deriv.items()]
        self.deriv = deriv

    def achievers(self, terms, x: Fraction) -> List[int]:
        vals = [(vn * x.denominator + i * x.numerator * self.den, i) for i, vn in terms]
        best = max(v for v, _ in vals)
        return [i for v, i in vals if v == best]

    def value(self, x: Fraction) -> Fraction:
        """T(h')(x) + x - T(h)(x), exactly."""
        q = x.denominator
        m1 = max(vn * q + i * x.numerator * self.den for i, vn in self.d)
        m2 = max(vn * q + i * x.numerator * self.den for i, vn in self.h)
        return Fraction(m1 + x.numerator * self.den - m2, q * self.den)

    def slopes(self, x: Fraction) -> Tuple[int, int]:
        """(left slope, right slope) of the profile at x."""
        dh, hh = self.achievers(self.d, x), self.achievers(self.h, x)
        return min(dh) + 1 - min(hh), max(dh) + 1 - max(hh)

    def kinks(self) -> List[Fraction]:
        """Interior points of the domain where the profile's slope changes."""
        cands = set()
        for terms in (self.h, self.d):
            for a, (i, vi) in enumerate(terms):
                for j, vj in terms[a + 1:]:
                    x = Fraction(vi - vj, (j - i) * self.den)
                    if DOMAIN[0] < x < DOMAIN[1]:
                        cands.add(x)
        return sorted(x for x in cands if self.slopes(x)[0] != self.slopes(x)[1])


def normalized(raw: Dict[int, Fraction]) -> Dict[int, Fraction]:
    coeffs = {i: v for i, v in raw.items() if i != 0}
    top = max(coeffs.values())
    return {i: v - top for i, v in coeffs.items()}


def report_of(series: Dict[int, Fraction], setting: str) -> Tuple[int, int, Fraction, int]:
    """(m, n, log delta, s) at the reference point log r = 0."""
    env = _Envelopes(series, setting)
    m = min(i for i, v in series.items() if v == 0)
    top = max(env.deriv.values())
    n = min(j for j, v in env.deriv.items() if v == top) + 1
    return m, n, top, m - n


def check_annulus(inp, out: dict) -> None:
    raw, setting = inp
    series = normalized(raw)
    expect(out["series"] == series, "annulus: normalized series differs")
    env = _Envelopes(series, setting)
    for k, got in zip(GRID_NUMS, out["grid"]):
        expect(got == env.value(Fraction(k, GRID_DEN)), f"annulus: value at {k}/25")
    expect(len(out["grid"]) == len(GRID_NUMS), "annulus: grid length")
    kinks = env.kinks()
    bps = out["breakpoints"]
    expect(bps == [DOMAIN[0]] + kinks + [DOMAIN[1]], "annulus: breakpoints differ")
    # every one-sided triple at every breakpoint, recomputed and judged here
    want = []
    for x0 in bps:
        left, right = env.slopes(x0)
        value = env.value(x0)
        if x0 > DOMAIN[0]:
            m = abs(min(env.achievers(env.h, x0)))
            want.append((m, -left, value, admissible(m, -left, value, setting)))
        if x0 < DOMAIN[1]:
            m = abs(max(env.achievers(env.h, x0)))
            want.append((m, right, value, admissible(m, right, value, setting)))
    expect(out["triples"] == want, "annulus: breakpoint triples differ")
    expect(all(t[3] for t in want), "annulus: inadmissible breakpoint triple")
    rep = report_of(series, setting)
    expect(out["report"] == rep, "annulus: different report differs")
    if rep[0] > 0:
        m, _, delta, s = rep
        expect(admissible(m, s, delta, setting), "annulus: report triple")
        expect(out["roundtrip"] == rep, "annulus: realize/report round trip")
    else:
        expect(out["roundtrip"] is None, "annulus: round trip for m <= 0")


# -- skeleton_types ----------------------------------------------------------------

SLOPE3_TYPES = frozenset({"MS", "MSS", "WS", "WSS"})


def expected_lengths(setting: str, log_j: Optional[Fraction], tag: str):
    """(l0, l1, l3) by the exact formulas of criterion 08."""
    log2 = log2_of(setting)
    zero = Fraction(0)
    if tag in ("TB", "WB"):
        return (log_j / 2, zero, zero)
    if tag == "MB":
        return (log_j / 2, -log2, zero)
    if tag == "MO":
        return (zero, -log2, zero)
    if tag == "MS":
        return (zero, log_j / 8 - log2, -log_j / 24)
    if tag == "MSS":
        return (zero, zero, -log2 / 3)
    if tag == "WS":
        return (zero, zero, -log_j / 24)
    return (zero, zero, zero)  # TG, WO, WSS


def check_skeleton(inp, out: dict, shapes: Dict[str, dict]) -> None:
    setting, log_j, tag, _ = inp
    expect(tag == expected_type(setting, log_j), "skeleton: generator type")
    expect(out["type"] == tag, f"skeleton: type {out['type']} != {tag}")
    lengths = expected_lengths(setting, log_j, tag)
    expect(out["lengths"] == lengths, "skeleton: report lengths")
    expect(out["metric_lengths"] == lengths, "skeleton: metric_lengths")
    if tag in ("MO", "MS", "MSS"):
        expect(lengths[1] + 3 * lengths[2] == -log2_of(setting), "skeleton: l1+3l3")
    expect(out["classified"] == tag, "skeleton: classify_special")
    expect(out["roundtrip"] == out["lifted"], "skeleton: JSON round trip")
    lifted = out["lifted"]
    expect(lifted["setting"] == setting, "skeleton: lifted setting")
    by_scan = any(abs(s) == 3 for s in lifted["sdelta"].values())
    want = tag in SLOPE3_TYPES
    expect(by_scan == want and out["strict"] == want, "skeleton: witness disagreement")
    expect(out["stabilized"] == shapes[tag], "skeleton: stabilize did not undo")


# -- cli ---------------------------------------------------------------------------


def check_cli(golden: dict, out: Tuple[int, bytes]) -> None:
    code, stdout = out
    expect(code == golden["exit"], f"cli: exit {code} != {golden['exit']}")
    expect(stdout == golden["stdout"].encode("utf-8"), "cli: stdout differs")
