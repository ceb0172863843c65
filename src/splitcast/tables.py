"""The report bundle's table format: cells, CSV files and the shared headers.

Every report file writes its numbers here, with 6 significant digits, so a
rerun with the same seed is byte identical.  The module imports no numpy:
``report`` reformats a bundle without loading the engine.
"""

import os

COVERAGE_HEADER = ("method", "variable", "level", "hour", "picp", "kupiec_lr", "kupiec_reject")
CRPS_HEADER = ("method", "variable", "hour", "crps")


def format_cell(x):
    """A report cell: text as is, None empty, booleans 0/1, numbers to 6
    significant digits."""
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, float):  # numpy's float64 is one too
        return format(float(x), ".6g")
    if hasattr(x, "item"):  # another numpy scalar, as the Python number it holds
        x = x.item()
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".6g")


def write_csv(path, header, rows):
    """A report CSV: the header line, then each row's cells through :func:`format_cell`.

    The lines go to the sibling file ``path + ".part"``, which replaces
    ``path`` once every row is written and is removed when ``rows`` raises:
    a run that fails part way leaves no truncated table behind."""
    part = path + ".part"
    try:
        with open(part, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(format_cell, row)) + "\n")
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise
