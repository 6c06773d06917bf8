"""Plain-text reporting helpers for experiment results.

Benches and the EXPERIMENTS.md generator render curves as unicode
sparklines and tables via :mod:`repro.utils.tables`.
"""

from __future__ import annotations

import numpy as np

_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values, lo: float | None = None, hi: float | None = None) -> str:
    """Render a sequence as a unicode sparkline.

    ``lo``/``hi`` pin the scale (default: data range); constant input
    renders mid-level bars.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return ""
    lo = float(arr.min()) if lo is None else lo
    hi = float(arr.max()) if hi is None else hi
    if hi <= lo:
        return _BARS[3] * arr.size
    scaled = (arr - lo) / (hi - lo)
    idx = np.clip((scaled * (len(_BARS) - 1)).round().astype(int), 0, len(_BARS) - 1)
    return "".join(_BARS[i] for i in idx)


def curve_line(label: str, xs, ys, fmt: str = "{:.2f}") -> str:
    """One labelled sparkline row with endpoint annotations.

    An empty series renders as a labelled ``(no data)`` row instead of
    raising, so one empty cell cannot abort a whole report.
    """
    ys = list(ys)
    if not ys:
        return f"{label:<24s} (no data)"
    spark = sparkline(ys)
    return (
        f"{label:<24s} {spark}  "
        f"[{fmt.format(ys[0])} → {fmt.format(ys[-1])}] "
        f"over x={[float(x) for x in np.round(xs, 2)]}"
    )


def percent(value: float, digits: int = 1) -> str:
    return f"{100 * value:.{digits}f}%"
