"""Row-level checks of the CSV bodies the CLI writes.

A row fails when the command exited nonzero, when a value is NaN, or when a
closed-form rate exceeds the exact ``general`` rate of the same row (that
would make the bound anti-conservative).  At the default seed a row also
fails when it differs from the recorded reference body: integer and text
cells exactly, float cells by more than ``REL_TOL`` relative, and any
``*_ok`` cell that reads 0.

Two columns of ``series`` hold rounding noise around zero, which a relative
test cannot compare: the first coefficient is ``pi(f) = 0`` in exact
arithmetic, and the truncation error ``abs_error`` at these r is below double
precision.  Coefficients are compared to within ``REL_TOL`` of the largest
coefficient; ``abs_error`` is the difference of the ``lambda0`` and
``partial_sum`` cells, which are compared, so it is not compared itself.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
CLOSED_FORMS = ("perturbation", "poincare", "bernstein_general")
TEXT_COLUMNS = {"family", "branch", "notes"}
INT_COLUMNS = {"n", "hits", "order"}
COLUMN_SCALED = {"coefficient"}
NOT_COMPARED = {"abs_error"}


def parse_csv(text):
    """Rows of a CLI CSV body as ``(header, cells)`` pairs.

    ``series`` writes two tables into one file, so a line whose first cell
    is not a number starts a new table; ``#`` lines are comments.
    """
    rows = []
    header = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        try:
            float(cells[0])
        except ValueError:
            header = cells
            continue
        rows.append((header, cells))
    return rows


def _kind(column):
    if column in TEXT_COLUMNS:
        return "text"
    if column in INT_COLUMNS or column.endswith("_ok"):
        return "int"
    return "float"


def _close(a, b, scale=0.0):
    if a == b:  # also equal infinities
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def _column_scales(refs):
    scales = {}
    for header, cells in refs:
        for col, cell in zip(header, cells):
            if col in COLUMN_SCALED:
                scales[col] = max(scales.get(col, 0.0), abs(float(cell)))
    return scales


def _row_problem(header, cells, ref, scales):
    """The first reason the row fails, or None."""
    if header is None or len(cells) != len(header):
        return "malformed row"
    values = dict(zip(header, cells))
    for col, cell in values.items():
        if _kind(col) != "float" or not cell:
            continue
        try:
            if math.isnan(float(cell)):
                return f"{col} is NaN"
        except ValueError:
            return f"{col} is not a number: {cell!r}"
    general = values.get("general_rate")
    for fam in CLOSED_FORMS:
        rate = values.get(f"{fam}_rate")
        if rate and general and float(rate) > float(general) * (1.0 + REL_TOL):
            return f"{fam} rate {rate} exceeds general rate {general}"
    if ref is None:
        return None
    ref_header, ref_cells = ref
    if ref_header != header:
        return "header differs from reference"
    for col, cell, want in zip(header, cells, ref_cells):
        kind = _kind(col)
        if kind == "int" and col.endswith("_ok") and cell == "0":
            return f"{col} is 0"
        if col in NOT_COMPARED:
            continue
        if kind != "float" or not cell or not want:
            if cell != want:
                return f"{col} is {cell!r}, reference {want!r}"
        elif not _close(float(cell), float(want), scales.get(col, 0.0)):
            return f"{col} is {cell}, reference {want}"
    return None


def _bounds_problems(rows):
    """``bounds`` writes one row per (u, family): compare within each u."""
    general = {
        cells[0]: float(cells[2])
        for header, cells in rows
        if header and header[:3] == ["u", "family", "rate"] and cells[1] == "general"
    }
    out = {}
    for i, (header, cells) in enumerate(rows):
        if header and header[:3] == ["u", "family", "rate"] and cells[1] in CLOSED_FORMS:
            g = general.get(cells[0])
            if g is not None and float(cells[2]) > g * (1.0 + REL_TOL):
                out[i] = f"{cells[1]} rate {cells[2]} exceeds general rate {g} at u={cells[0]}"
    return out


def check_body(text, expected_rows, reference_text=None):
    """Count failed rows of one command's output; returns (attempted, failed, notes).

    ``reference_text`` is the recorded body at the default seed, or None on
    any other seed.
    """
    rows = parse_csv(text)
    refs = parse_csv(reference_text) if reference_text is not None else None
    if refs is not None and len(refs) != expected_rows:
        raise ValueError(f"reference has {len(refs)} rows, expected {expected_rows}")
    scales = _column_scales(refs) if refs is not None else {}
    cross = _bounds_problems(rows)
    attempted = max(expected_rows, len(rows))
    notes = []
    for i in range(attempted):
        if i >= len(rows):
            problem = "row missing"
        elif i >= expected_rows:
            problem = "unexpected extra row"
        else:
            header, cells = rows[i]
            problem = cross.get(i) or _row_problem(
                header, cells, refs[i] if refs is not None else None, scales
            )
        if problem:
            notes.append(f"row {i}: {problem}")
    return attempted, len(notes), notes
