"""Comparison of two sweep tables computed along different routes.

Value columns agree to a relative tolerance. Round-off residuals (gradient
norms and the cross-check gaps) and the differences from a Richardson limit
(``err_*``, which amplify a change of the values) only agree to an absolute
tolerance. Certificate hashes name the exact spectrum and are not compared.
"""

import pytest

from latthermo.harness import ERROR_COLUMNS

EXACT_COLUMNS = {"N", "n_sites", "status"}
ABSOLUTE_COLUMNS = ({"grad_min", "grad_saddle", "dS_split_gap", "K_product_gap"}
                    | {err for _, err in ERROR_COLUMNS})
HASH_COLUMNS = {"cert_min", "cert_saddle"}


def assert_tables_close(rows_a, rows_b, rtol: float, atol: float, skip=()) -> None:
    """Rows match column by column: value columns to ``rtol``, residual and
    ``err_*`` columns to ``atol``; the columns in ``skip`` are not compared."""
    assert [r["N"] for r in rows_a] == [r["N"] for r in rows_b]
    for a, b in zip(rows_a, rows_b):
        assert a.keys() == b.keys(), a["N"]
        for col in a.keys() - HASH_COLUMNS - set(skip):
            x, y = a[col], b[col]
            where = f"N={a['N']} {col}: {x!r} vs {y!r}"
            if col in EXACT_COLUMNS or x is None or y is None:
                assert x == y, where
            elif col in ABSOLUTE_COLUMNS:
                assert abs(x - y) <= atol, where
            else:
                assert x == pytest.approx(y, rel=rtol, abs=0), where
