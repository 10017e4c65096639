"""The dataset CSV boundary: header layouts, row numbers in errors, write/read round trips,
and the C reader held to the original csv reader."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frechet_svt import dataio
from frechet_svt.dataio import SchemaError, read_covariates, read_dataset, write_predictions
from frechet_svt.metric_spaces import WassersteinSpace, space_from_kind
from oracles import read_covariates_reference, read_dataset_reference, write_predictions_reference

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
    space = WassersteinSpace(grid) if grid is not None else space_from_kind(kind, size=np.shape(preds)[-1])
    write_predictions(out / "new.csv", space, preds, lambda_hat=lambda_hat)
    write_predictions_reference(out / "ref.csv", kind, preds, grid=grid, lambda_hat=lambda_hat)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
    x, responses, space = read_dataset(out / "new.csv", kind)
    assert x is None
    assert responses.shape == expected.shape
    assert responses.tobytes() == np.ascontiguousarray(expected, dtype=float).tobytes()  # -0.0 included
    if grid is not None:
        assert space.grid.tobytes() == grid.tobytes()


def assert_same_read(read, reference, *args):
    """``read`` gives ``reference``'s arrays to the bit, or its ``SchemaError`` text."""
    try:
        expected = reference(*args)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            read(*args)
        assert str(got.value) == str(exc)
        return
    actual = read(*args)
    if isinstance(expected, np.ndarray):
        actual, expected = (actual, None, None), (expected, None, None)
    (x, responses, space), (ex, eresponses, espace) = actual, expected
    for got, want in [(x, ex), (responses, eresponses)]:
        assert (got is None) == (want is None)
        if want is not None:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()  # -0.0 included
    assert type(space) is type(espace)
    if hasattr(espace, "grid"):
        assert space.grid.tobytes() == espace.grid.tobytes()


FORMS = {
    "repr": repr,
    "%.17g": lambda v: "%.17g" % v,
    "%.6e": lambda v: "%.6e" % v,
    "integer": lambda v: str(int(v)),
    "padded": lambda v: f" {v!r}\t",
}
forms = st.sampled_from(sorted(FORMS))
# Lines that may stand before the header: comments (one holding a quote) and blank lines.
LEAD = ["# a comment", "", '# a "quoted, comment', "  # indented"]


@st.composite
def dataset_files(draw):
    """(file bytes, kind) of a dataset in a random dress: layout, number forms, BOM, line ends, comments."""
    layout = draw(st.sampled_from(["y", "q", "c"]))
    p = draw(st.integers(0, 3))
    n = draw(st.integers(1, 4))
    header = [f"x{i}" for i in range(1, p + 1)]
    rows = [[FORMS[draw(forms)](draw(cells)) for _ in range(p)] for _ in range(n)]
    if layout == "y":
        kind = draw(st.sampled_from(["euclidean", "l1", "linf"]))
        d = draw(st.integers(1, 3))
        header += [f"y{i}" for i in range(1, d + 1)]
        for row in rows:
            row += [FORMS[draw(forms)](draw(cells)) for _ in range(d)]
    elif layout == "q":
        kind, grid = "wasserstein", np.sort(draw(levels))
        header += [f"q{i}" for i in range(1, grid.size + 1)]
        rows.insert(0, [""] * p + list(map(repr, grid.tolist())))
        for row in rows[1:]:
            # One form per row: each form keeps sorted values in order.
            form = FORMS[draw(forms)]
            row += [form(v) for v in sorted(draw(st.lists(cells, min_size=grid.size, max_size=grid.size)))]
    else:
        kind, r = "correlation", draw(st.integers(1, 3))
        header += [f"c{i}{j}" for i in range(1, r + 1) for j in range(1, r + 1)]
        # off-diagonal entries of at most 0.45 keep an r <= 3 matrix diagonally dominant, hence PSD
        off = st.sampled_from([-0.0, 5e-324, 0.1 + 0.2]) | st.floats(-0.45, 0.45)
        for row in rows:
            mat = [[FORMS[draw(forms)](1.0)] * r for _ in range(r)]
            for i in range(r):
                for j in range(i + 1, r):
                    mat[i][j] = mat[j][i] = FORMS[draw(forms)](draw(off))
            row += [cell for line in mat for cell in line]
    lines = draw(st.lists(st.sampled_from(LEAD), max_size=3)) + [",".join(header)]
    for row in map(",".join, rows):
        lines += [""] * draw(st.integers(0, 1)) + [row]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + end.join(lines) + end * draw(st.integers(0, 1))).encode(), kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dataset_files())
def test_c_reader_matches_the_csv_reader(tmp_path_factory, file):
    data, kind = file
    path = tmp_path_factory.mktemp("dress") / "data.csv"
    path.write_bytes(data)
    assert dataio._read_fast(path) is not None  # the C reader took the body
    assert_same_read(read_dataset, read_dataset_reference, path, kind)
    assert_same_read(read_covariates, read_covariates_reference, path)


# One fault (or one text that only the csv route reads) per file: (text, kind).
FAULTS = {
    "whitespace-only line": ("x1,y1\n1,2\n   \n3,4\n", "euclidean"),
    "whitespace-only line, one column": ("x1\n1\n \n2\n", "euclidean"),
    "trailing comma": ("x1,y1\n1,2,\n", "euclidean"),
    "short row": ("x1,y1\n1,2\n3\n", "euclidean"),
    "empty cell": ("x1,y1\n1,\n", "euclidean"),
    "comment after a value": ("x1,y1\n1,3#c\n", "euclidean"),
    "comment line in the body": ("x1,y1\n1,2\n# note\n3,4\n", "euclidean"),
    "quoted cell": ('x1,y1\n"1",2\n', "euclidean"),
    "underscore": ("x1,y1\n1_0,2\n", "euclidean"),
    "non-ASCII digit": ("x1,y1\n\u0661,2\n", "euclidean"),
    "inf": ("x1,y1\n1,inf\n", "euclidean"),
    "overflow": ("x1,y1\n1e999,2\n", "euclidean"),
    "hex": ("x1,y1\n0x10,2\n", "euclidean"),
    "NUL byte": ("x1,y1\n1,2\x00\n", "euclidean"),
    "field over the csv size limit": ("x1,y1\n1," + "0" * csv.field_size_limit() + "2\n", "euclidean"),
    "header only": ("x1,y1\n", "euclidean"),
    "short grid row": ("x1,q1,q2\n,0.25\n1,2,3\n", "wasserstein"),
    "long grid row": ("x1,q1\n,0.25,0.75\n1,2\n", "wasserstein"),
    "grid row only": ("x1,q1,q2\n,0.25,0.75\n", "wasserstein"),
    "bad response cell": ("x1,y1\n1,abc\n", "euclidean"),
    "bad grid row and bad body cell": ("x1,q1,q2\n,0.75,0.25\n1,abc,2\n", "wasserstein"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(FAULTS))
def test_faults_read_as_the_csv_reader_reads_them(tmp_path, case):
    text, kind = FAULTS[case]
    path = tmp_path / "fault.csv"
    path.write_bytes(text.encode())
    assert_same_read(read_dataset, read_dataset_reference, path, kind)
    assert_same_read(read_covariates, read_covariates_reference, path)


def test_a_dressed_file_skips_the_csv_route(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes("\ufeff# made by hand\r\n\r\nx1,q1,q2\r\n,0.25,0.75\r\n1,2,3\r\n\r\n4,5,6\r\n".encode())

    def no_csv_route(path):
        raise AssertionError("the csv route read the body")

    monkeypatch.setattr(dataio, "_read_csv", no_csv_route)
    x, y, space = read_dataset(path, "wasserstein")
    assert x.tolist() == [[1.0], [4.0]] and y.tolist() == [[2.0, 3.0], [5.0, 6.0]]
    assert space.grid.tolist() == [0.25, 0.75]


def test_a_row_longer_than_the_csv_field_limit_skips_the_csv_route(tmp_path, monkeypatch):
    # csv refuses only a field over its size limit, not a long line of
    # short fields, as a design with about 6,500 or more covariates writes.
    rng = np.random.default_rng(9)
    p = 7000
    lines = [",".join([f"x{i}" for i in range(1, p + 1)] + ["y1"])]
    lines += [",".join(map(repr, row)) for row in rng.standard_normal((3, p + 1)).tolist()]
    assert min(len(line) for line in lines[1:]) > csv.field_size_limit()
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")

    def no_csv_route(path):
        raise AssertionError("the csv route read the body")

    monkeypatch.setattr(dataio, "_read_csv", no_csv_route)
    assert_same_read(read_dataset, read_dataset_reference, path, "euclidean")


def test_large_file_peak_memory(tmp_path):
    """A 2000x121 Wasserstein file (4.7 MB of text) reads with a traced peak of at most 10 MB."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2000, 20))
    q = np.sort(rng.standard_normal((2000, 101)), axis=1)
    grid = (np.arange(101) + 0.5) / 101
    path = tmp_path / "train.csv"
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i}" for i in range(1, 21)] + [f"q{j}" for j in range(1, 102)]) + "\n")
        fh.write("," * 20 + ",".join(map(repr, grid.tolist())) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in np.hstack([x, q]).tolist())
    tracemalloc.start()
    try:
        _, responses, _ = read_dataset(path, "wasserstein")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert responses.tobytes() == q.tobytes()
    assert peak <= 10e6, f"read_dataset peaked at {peak / 1e6:.1f} MB"
