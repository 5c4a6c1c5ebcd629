"""Minimal skeleton of a genus-one double cover of the line.

The combinatorial type and the metric of the skeleton are determined by
the characteristics and the absolute value of the j-invariant alone.
Bad reduction (``|j| > 1``) gives a loop of total length ``log|j|``
split into two equal edges; good reduction splits by ``|j|`` relative
to ``|256|`` in the mixed case and by ``|j|`` against 1 and 0 in the
wild case.
"""

from __future__ import annotations

from typing import Tuple

from .special import Lengths, SpecialType
from .valuation import NEG_INF, Frozen, LogAbs, ResidueSetting, ZERO


class InvalidSettingError(ValueError):
    pass


class EllipticInput(Frozen):
    """A residue setting together with ``log|j|`` (``-inf`` means j = 0)."""

    __slots__ = ("setting", "log_j")

    def __init__(self, setting: ResidueSetting, log_j: LogAbs):
        if not isinstance(setting, ResidueSetting):
            raise InvalidSettingError(f"expected a ResidueSetting, got {setting!r}")
        if not isinstance(log_j, LogAbs):
            raise InvalidSettingError(f"expected a LogAbs, got {log_j!r}")
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "log_j", log_j)

    @classmethod
    def of(cls, setting: ResidueSetting, log_j) -> "EllipticInput":
        return cls(setting, log_j if isinstance(log_j, LogAbs) else LogAbs(log_j))

    @classmethod
    def j_zero(cls, setting: ResidueSetting) -> "EllipticInput":
        return cls(setting, NEG_INF)

    @property
    def j_is_zero(self) -> bool:
        return self.log_j.is_neg_inf


class SkeletonReport(Frozen):
    """Skeleton type, metric and reduction behaviour of the cover."""

    __slots__ = ("type", "lengths", "reduction", "reduction_fiber", "setting", "notes")

    def __init__(
        self,
        type: SpecialType,
        lengths: Lengths,
        reduction: str,  # "good" | "bad"
        reduction_fiber: str,  # "ordinary" | "supersingular" | "n/a"
        setting: ResidueSetting,
        notes: Tuple[str, ...] = (),
    ):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "reduction", reduction)
        object.__setattr__(self, "reduction_fiber", reduction_fiber)
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "notes", notes)

    def to_json_dict(self) -> dict:
        return {
            "type": self.type.tag,
            "characteristic_class": self.type.characteristic_class,
            "l0": str(self.lengths.l0),
            "l1": str(self.lengths.l1),
            "l3": str(self.lengths.l3),
            "reduction": self.reduction,
            "reduction_fiber": self.reduction_fiber,
            "setting": self.setting.describe(),
            "notes": list(self.notes),
        }


_LOOP_NOTE = (
    "loop of total length log|j| split into two equal edges; the applied "
    "half-length is +log|j|/2 (the formula -log|j|/2 would be negative "
    "here and is read as the valuation-scale variant)"
)


def log_256(setting: ResidueSetting) -> LogAbs:
    return setting.int_abs(256)


def classify_elliptic(inp: EllipticInput) -> SkeletonReport:
    """Case split on (characteristics, |j|), with exact lengths."""
    setting = inp.setting
    two = setting.int_abs(2)
    log_j = inp.log_j

    if two == ZERO:
        # residue characteristic away from 2: everything is tame
        if log_j > 0:
            return SkeletonReport(
                SpecialType("TB"),
                Lengths(l0=log_j.value / 2),
                "bad",
                "n/a",
                setting,
                notes=(_LOOP_NOTE,),
            )
        return SkeletonReport(
            SpecialType("TG"), Lengths(), "good", "n/a", setting
        )

    if two.is_neg_inf:
        # equicharacteristic 2: wild
        if inp.j_is_zero:
            return SkeletonReport(
                SpecialType("WSS"), Lengths(), "good", "supersingular", setting
            )
        if log_j > 0:
            return SkeletonReport(
                SpecialType("WB"),
                Lengths(l0=log_j.value / 2),
                "bad",
                "n/a",
                setting,
                notes=(_LOOP_NOTE,),
            )
        if log_j == 0:
            return SkeletonReport(
                SpecialType("WO"), Lengths(), "good", "ordinary", setting
            )
        return SkeletonReport(
            SpecialType("WS"),
            Lengths(l3=-log_j.value / 24),
            "good",
            "supersingular",
            setting,
        )

    # mixed characteristic with residue characteristic 2
    log2 = two.value
    if log_j > 0:
        return SkeletonReport(
            SpecialType("MB"),
            Lengths(l0=log_j.value / 2, l1=-log2),
            "bad",
            "n/a",
            setting,
            notes=(_LOOP_NOTE,),
        )
    if log_j == 0:
        return SkeletonReport(
            SpecialType("MO"), Lengths(l1=-log2), "good", "ordinary", setting
        )
    if log_j > log_256(setting):
        return SkeletonReport(
            SpecialType("MS"),
            Lengths(l1=log_j.value / 8 - log2, l3=-log_j.value / 24),
            "good",
            "supersingular",
            setting,
        )
    return SkeletonReport(
        SpecialType("MSS"),
        Lengths(l3=-log2 / 3),
        "good",
        "supersingular",
        setting,
    )
