"""Built-in preference matrices, generators and CSV loaders.

The CSV format is K rows by K columns of decimals, no header.  Built-in
matrices ship under duelsim/data/; see data/README.md for provenance.
"""

from __future__ import annotations

import os
from importlib import resources

import numpy as np

from .bounds import check_count
from .environment import PreferenceMatrix, validate_matrix

# name -> data file; every built-in, arithmetic included, loads a CSV, and
# the arm count is the loaded matrix's
BUILTIN_SPECS: dict[str, str] = {
    "six-rankers": "six_rankers.csv",
    "mslr": "mslr.csv",
    "tennis": "tennis.csv",
    "arithmetic": "arithmetic10.csv",
    "car": "car.csv",
    "sushi": "sushi.csv",
}


def arithmetic_matrix(k: int) -> PreferenceMatrix:
    """Evenly spaced preferences: arm i beats arm j w.p. 0.5 + 0.025 (j - i).

    Entries are built as exact fortieths so a 6-decimal CSV round-trip
    reproduces them bit for bit.
    """
    if check_count("arm count", k, 2) > 21:
        raise ValueError(f"arm count must be in [2, 21] to keep entries in [0, 1], got {k}")
    idx = np.arange(k)
    mu = (20.0 + (idx[None, :] - idx[:, None])) / 40.0
    return validate_matrix(mu)


def hard_instance_pair(
    k: int, delta: float, k_star: int = 1
) -> tuple[PreferenceMatrix, int, PreferenceMatrix]:
    """Two nearly indistinguishable instances used for worst-case scaling.

    In the first, arm 0 beats everyone by delta and all other pairs are
    even.  The second promotes the designated arm k_star to win by 2*delta
    against the field and by delta against arm 0.  k_star is a parameter
    because the adversarial choice depends on the algorithm under test.
    """
    check_count("K", k, 3)
    if not 0.0 < delta <= 0.125:
        raise ValueError(f"delta must lie in (0, 1/8], got {delta}")
    if check_count("k_star", k_star, 1) >= k:
        raise ValueError(f"k_star must be a suboptimal arm in [1, {k - 1}], got {k_star}")

    mu1 = np.full((k, k), 0.5)
    mu1[0, 1:] = 0.5 + delta
    mu1[1:, 0] = 0.5 - delta

    mu2 = mu1.copy()
    for j in range(k):
        if j == k_star:
            continue
        win = 0.5 + delta if j == 0 else 0.5 + 2 * delta
        mu2[k_star, j] = win
        mu2[j, k_star] = 1.0 - win
    return validate_matrix(mu1), k_star, validate_matrix(mu2)


def load_matrix_csv(path) -> PreferenceMatrix:
    """Read and validate a K x K preference matrix from a headerless CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    rows = []
    width = lines[0].count(",") + 1
    for r, line in enumerate(lines):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != width:
            raise ValueError(f"{path}: row {r} has {len(cells)} columns, expected {width}")
        row = []
        for c, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: row {r}, column {c}: {cell!r}") from None
        rows.append(row)
    if len(rows) != width:
        raise ValueError(f"{path}: {len(rows)} rows by {width} columns is not square")
    return validate_matrix(np.array(rows))


def save_matrix_csv(matrix: PreferenceMatrix, path) -> None:
    """Write a matrix in the 6-decimal CSV interchange format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in matrix.mu:
            fh.write(",".join(f"{x:.6f}" for x in row) + "\n")


def builtin(name: str) -> PreferenceMatrix:
    """Load one of the named built-in matrices."""
    if name not in BUILTIN_SPECS:
        raise ValueError(_unknown(name))
    ref = resources.files("duelsim.data").joinpath(BUILTIN_SPECS[name])
    with resources.as_file(ref) as path:
        return load_matrix_csv(path)


def _unknown(name: str, reason: str = "") -> str:
    return f"unknown dataset {name!r}{reason}; built-ins are: {', '.join(sorted(BUILTIN_SPECS))}"


def resolve(spec: str | os.PathLike) -> PreferenceMatrix:
    """Dataset by built-in name, or by path to a CSV file."""
    if not isinstance(spec, (str, os.PathLike)):  # an int would open a file descriptor
        raise ValueError(_unknown(spec))
    if spec in BUILTIN_SPECS:
        return builtin(spec)
    try:
        return load_matrix_csv(spec)
    except FileNotFoundError:
        raise ValueError(_unknown(spec, " is neither a built-in nor a file")) from None


def list_builtin() -> list[tuple[str, int]]:
    return [(name, builtin(name).k) for name in sorted(BUILTIN_SPECS)]
