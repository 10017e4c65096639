"""The dataset CSV boundary: header layouts, row numbers in errors, and write/read round trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frechet_svt.dataio import SchemaError, read_covariates, read_dataset, write_predictions
from oracles import write_predictions_reference

# (file text, kind, fragment of the error message)
BAD_HEADERS = {
    "covariates out of order": ("x2,x1,y1\n1,2,3\n", "euclidean", "x1..xp"),
    "covariate after a response": ("x1,y1,x2\n1,2,3\n", "euclidean", "x1..xp"),
    "gap in y columns": ("x1,y1,y3\n1,2,3\n", "euclidean", "response columns"),
    "q2 first": ("x1,q2,q1\n,0.25,0.75\n1,2,3\n", "wasserstein", "response columns"),
    "five c columns": ("x1,c11,c12,c21,c22,c23\n1,1,0,0,1,0\n", "correlation", "response columns"),
    "c columns not row-major": ("x1,c12,c11,c21,c22\n1,0,1,0,1\n", "correlation", "response columns"),
    "unknown prefix": ("x1,z1\n1,2\n", "euclidean", "response columns"),
    "no response columns": ("x1,x2\n1,2\n", "euclidean", "expects y response columns"),
    "kind and layout disagree": ("x1,y1\n1,2\n", "wasserstein", "expects q response columns"),
    "grid row with a covariate cell": ("x1,q1,q2\n0,0.25,0.75\n1,2,3\n", "wasserstein", "row 2: grid row"),
    "missing grid row": ("x1,q1,q2\n1,2,3\n2,3,4\n", "wasserstein", "row 2: grid row"),
    "non-increasing grid levels": ("x1,q1,q2\n,0.75,0.25\n1,2,3\n", "wasserstein", "row 2: bad grid levels"),
}


@pytest.mark.parametrize("case", list(BAD_HEADERS))
def test_bad_layout_is_a_schema_error(tmp_path, case):
    text, kind, message = BAD_HEADERS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        read_dataset(path, kind)


@pytest.mark.parametrize(
    "text",
    [
        "# comment\nx1,y1\n1,2\n3,abc\n",
        "x1,y1\n1,2\n\n3,abc\n",
        '# note,"see below\nx1,y1\n1,2\n3,abc\n',
        'x1,y1\n# note,"start\n1,2\n3,abc\n',
    ],
    ids=["comment line", "blank line", "quote in the first line's comment", "quote in a comment"],
)
def test_row_number_is_the_file_line(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match="row 4: column y1"):
        read_dataset(path, "euclidean")


def test_quote_in_a_comment_swallows_no_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('x1,y1\n1,2\n# note,"start\n3,4\n# end"\n5,6\n7,8\n')
    x, y, _ = read_dataset(path, "euclidean")
    assert x.ravel().tolist() == [1.0, 3.0, 5.0, 7.0]
    assert y.ravel().tolist() == [2.0, 4.0, 6.0, 8.0]


def test_query_rows_need_every_header_cell(tmp_path):
    path = tmp_path / "queries.csv"
    path.write_text("x1,y1\n1,2\n3\n")
    with pytest.raises(SchemaError, match="row 3: expected 2 cells, got 1"):
        read_covariates(path)


SPECIAL = [-0.0, 0.0, 1e-300, 0.1 + 0.2, 5e-324, -1.7976931348623157e308]
cells = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
levels = st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6), min_size=1, max_size=6, unique=True)
lambdas = st.none() | st.floats(min_value=0.0, max_value=1e6) | st.just(0.1 + 0.2)


@st.composite
def prediction_blocks(draw):
    """(kind, predictions, grid, expected read-back responses)."""
    kind = draw(st.sampled_from(["euclidean", "euclidean-scalar", "l1", "linf", "wasserstein", "correlation"]))
    n = draw(st.integers(1, 4))
    if kind == "euclidean-scalar":
        preds = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
        return "euclidean", preds, None, preds[:, None]
    if kind == "correlation":
        r = draw(st.integers(1, 3))
        # off-diagonal entries of at most 0.45 keep an r <= 3 matrix diagonally dominant, hence PSD
        off = st.sampled_from([-0.0, 1e-300, 0.1 + 0.2]) | st.floats(-0.45, 0.45)
        mats = np.ones((n, r, r))
        for k in range(n):
            for i in range(r):
                for j in range(i + 1, r):
                    mats[k, i, j] = mats[k, j, i] = draw(off)
        return kind, mats, None, mats
    d = draw(st.integers(1, 4))
    grid = None
    if kind == "wasserstein":
        grid = np.sort(draw(levels))
        d = grid.size
    block = np.array([draw(st.lists(cells, min_size=d, max_size=d)) for _ in range(n)])
    if kind == "wasserstein":
        block = np.sort(block, axis=1)
    return kind, block, grid, block


@settings(max_examples=60, deadline=None, derandomize=True)
@given(prediction_blocks(), lambdas)
@example(("euclidean", np.array([-0.0, 1e-300, 0.1 + 0.2]), None, np.array([[-0.0], [1e-300], [0.1 + 0.2]])), 0.0)
def test_predictions_round_trip(tmp_path_factory, block, lambda_hat):
    kind, preds, grid, expected = block
    out = tmp_path_factory.mktemp("rt")
    write_predictions(out / "new.csv", kind, preds, grid=grid, lambda_hat=lambda_hat)
    write_predictions_reference(out / "ref.csv", kind, preds, grid=grid, lambda_hat=lambda_hat)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
    x, responses, space = read_dataset(out / "new.csv", kind)
    assert x is None
    assert responses.shape == expected.shape
    assert responses.tobytes() == np.ascontiguousarray(expected, dtype=float).tobytes()  # -0.0 included
    if grid is not None:
        assert space.grid.tobytes() == grid.tobytes()
