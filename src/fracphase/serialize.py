"""JSON/CSV/SVG serialization.

Exact rationals are serialized as "p/q" strings; floats appear only in
fields whose name ends in ``_float`` (or the CSV value column).
"""

from __future__ import annotations

import io
from fractions import Fraction

from .errors import InputError
from .lattice import LatticeIFS
from .line_ifs import LineIFS
from .phase import PhaseReport, RootThreshold
from .spectral import SpectralEnclosure
from .type_system import TypeSystem


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {s!r}") from exc


def line_ifs_to_json(ifs: LineIFS) -> dict:
    return {
        "kind": "line",
        "L": ifs.L,
        "translations": [[t, n] for t, n in ifs.translations],
    }


def lattice_to_json(lat: LatticeIFS) -> dict:
    return {
        "kind": "lattice",
        "d": lat.d,
        "L": lat.L,
        "cells": sorted(list(c) for c in lat.cells),
    }


def ifs_from_json(data: dict):
    """Parse either IFS schema; returns LineIFS or LatticeIFS."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("IFS JSON must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "line":
            translations = tuple(
                (int(t), int(n)) for t, n in data["translations"]
            )
            return LineIFS(L=int(data["L"]), translations=translations)
        if kind == "lattice":
            cells = frozenset(tuple(int(x) for x in c) for c in data["cells"])
            return LatticeIFS(d=int(data["d"]), L=int(data["L"]), cells=cells)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind!r} IFS JSON: {exc}") from exc
    raise InputError(f"unknown IFS kind {kind!r}")


def type_system_to_json(ts: TypeSystem) -> dict:
    return {
        "basic_offsets": list(ts.basic_offsets),
        "matrices": [[list(row) for row in A] for A in ts.matrices],
        "nu": [frac_str(x) for x in ts.nu],
    }


# The Fraction test comes last: it goes through ABCMeta and is slow for
# values of other types.


def _exact_str(value) -> str | None:
    """Exact rendering of a threshold value; None when it has none."""
    if isinstance(value, RootThreshold):
        return value.exact_str()
    if isinstance(value, SpectralEnclosure):
        return frac_str(value.lower) if value.is_exact else None
    if isinstance(value, Fraction):
        return frac_str(value)
    return None


def _float(value) -> float | None:
    """Float rendering of a threshold value (an enclosure gives its midpoint)."""
    if isinstance(value, RootThreshold):
        return value.value_float
    if isinstance(value, SpectralEnclosure):
        return value.midpoint_float
    if isinstance(value, Fraction):
        return float(value)
    return value


def phase_report_to_json(report: PhaseReport) -> dict:
    thresholds = [
        {
            "name": name,
            "theorem": theorem,
            "value_exact": _exact_str(value),
            "value_float": _float(value),
            "witness": None if witness is None else str(witness),
        }
        for name, theorem, value, witness in report.thresholds()
    ]
    return {
        "ifs": line_ifs_to_json(report.ts.parent),
        "type_system": type_system_to_json(report.ts),
        "thresholds": thresholds,
        "notes": list(report.notes),
    }


def phase_report_to_csv(report_json: dict) -> str:
    out = io.StringIO()
    out.write("name,theorem,value_exact,value_float\n")
    for row in report_json["thresholds"]:
        exact = row["value_exact"] or ""
        vf = "" if row["value_float"] is None else repr(row["value_float"])
        out.write(f"{row['name']},{row['theorem']},{exact},{vf}\n")
    return out.getvalue()


_SVG_WIDTH, _SVG_HEIGHT = 640, 160
_BAND_COLORS = {
    "extinction": "#888888",
    "dimension-one": "#4477aa",
    "no-interval": "#ee6677",
    "positive-measure": "#228833",
    "interval-sufficient": "#ccbb44",
    "zero-measure-estimate": "#aa3377",
}


def svg_band_chart(report_json: dict) -> str:
    """Standalone SVG with the p-axis and one labeled marker per threshold."""
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, 40
    axis_y = height - 50
    scale = width - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{margin}" y1="{axis_y}" x2="{width - margin}" '
        f'y2="{axis_y}" stroke="black"/>',
        f'<text x="{margin}" y="{axis_y + 20}" font-size="12">p = 0</text>',
        f'<text x="{width - margin - 30}" y="{axis_y + 20}" '
        f'font-size="12">p = 1</text>',
    ]
    rows = [t for t in report_json["thresholds"] if t["value_float"] is not None]
    for k, row in enumerate(sorted(rows, key=lambda r: r["value_float"])):
        x = margin + scale * min(max(row["value_float"], 0.0), 1.0)
        color = _BAND_COLORS.get(row["name"], "#000000")
        label_y = axis_y - 18 - 16 * (k % 4)
        parts.append(
            f'<line x1="{x:.2f}" y1="{label_y + 4}" x2="{x:.2f}" '
            f'y2="{axis_y}" stroke="{color}" stroke-width="2"/>'
        )
        label = row["value_exact"] or f"{row['value_float']:.4f}"
        parts.append(
            f'<text x="{x:.2f}" y="{label_y}" font-size="10" '
            f'fill="{color}">{row["name"]} {label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
