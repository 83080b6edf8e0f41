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


def line_ifs_to_json(ifs: LineIFS) -> dict:
    factor = {"applied_factor": ifs.applied_factor} if ifs.applied_factor != 1 else {}
    return {
        "kind": "line",
        "L": ifs.L,
        "translations": [[t, n] for t, n in ifs.translations],
        **factor,
    }


def ifs_from_json(data: dict):
    """Parse either IFS schema; returns LineIFS or LatticeIFS."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("IFS JSON must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "line":
            return LineIFS(data["L"], tuple((t, n) for t, n in data["translations"]),
                           data.get("applied_factor", 1))
        if kind == "lattice":
            cells = frozenset(map(tuple, data["cells"]))
            if len(cells) < len(data["cells"]):  # (1,) would hide (1.0,) or (True,)
                raise InputError("lattice cells must be distinct")
            return LatticeIFS(d=data["d"], L=data["L"], cells=cells)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind!r} IFS JSON: {exc}") from exc
    raise InputError(f"unknown IFS kind {kind!r}")


def type_system_to_json(ts: TypeSystem) -> dict:
    return {
        "basic_offsets": list(ts.basic_offsets),
        "matrices": [[list(row) for row in A] for A in ts.matrices],
        "nu": [frac_str(x) for x in ts.nu],
    }


def _render(value) -> tuple[str | None, float | None]:
    """Exact and float renderings of a threshold value (an enclosure's float is
    its midpoint).  Fraction is the fallback, as an isinstance test against it
    goes through ABCMeta and is slow for values of other types."""
    if value is None:
        return None, None
    if isinstance(value, RootThreshold):
        return value.exact_str(), value.value_float
    if isinstance(value, SpectralEnclosure):
        return frac_str(value.lower) if value.is_exact else None, value.midpoint_float
    return frac_str(value), float(value)


def phase_report_to_json(report: PhaseReport) -> dict:
    thresholds = [
        {"name": name, "theorem": theorem, "value_exact": exact, "value_float": approx,
         "witness": None if witness is None else "".join(map(str, witness))}
        for name, theorem, value, witness in report.thresholds()
        for exact, approx in [_render(value)]
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
