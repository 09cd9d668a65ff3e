import numpy as np
import pytest

from pbcd.errors import InputError
from pbcd.matrixio import (MatrixFile, load_matrix, load_vector, save_matrix,
                           save_vector)


def random_matrix_file(rng, rows=7, cols=5, nnz=12):
    pairs = set()
    while len(pairs) < nnz:
        pairs.add((int(rng.integers(rows)), int(rng.integers(cols))))
    pairs = sorted(pairs)
    return MatrixFile(rows=rows, cols=cols,
                      row_idx=[p[0] for p in pairs],
                      col_idx=[p[1] for p in pairs],
                      values=rng.normal(size=nnz))


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = random_matrix_file(rng)
    path = tmp_path / "a.mtx"
    save_matrix(path, mat)
    back = load_matrix(path)
    assert back.rows == mat.rows and back.cols == mat.cols
    assert np.array_equal(back.to_dense(), mat.to_dense())
    assert np.array_equal(np.sort(back.values), np.sort(mat.values))


def test_vector_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    vec = rng.normal(size=9) * np.exp(rng.normal(size=9) * 5)
    path = tmp_path / "b.vec"
    save_vector(path, vec)
    assert np.array_equal(load_vector(path), vec)


def _write(tmp_path, text):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    return path


def test_missing_header(tmp_path):
    with pytest.raises(InputError, match="header"):
        load_matrix(_write(tmp_path, "1 1 1\n1 1 2.0\n"))


def test_count_mismatch_named(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n"
    with pytest.raises(InputError, match="declares 3 entries, file has 2"):
        load_matrix(_write(tmp_path, text))


def test_duplicate_entry_rejected_with_line(tmp_path):
    text = ("%%MatrixMarket matrix coordinate real general\n2 2 2\n"
            "1 1 1.0\n1 1 2.0\n")
    with pytest.raises(InputError, match="line 4: duplicate"):
        load_matrix(_write(tmp_path, text))


def test_zero_based_misuse_caught(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"
    with pytest.raises(InputError, match="1-based"):
        load_matrix(_write(tmp_path, text))
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
    with pytest.raises(InputError, match="outside"):
        load_matrix(_write(tmp_path, text))


def test_parse_error_carries_line_number(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n"
    with pytest.raises(InputError, match="line 3"):
        load_matrix(_write(tmp_path, text))
    with pytest.raises(InputError, match="line 2"):
        load_vector(_write(tmp_path, "1.5\nnope\n"))


def test_comments_and_blanks_skipped(tmp_path):
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "% generated for a test\n\n2 2 1\n% entry follows\n1 2 -3.5\n")
    mat = load_matrix(_write(tmp_path, text))
    assert mat.to_dense()[0, 1] == -3.5


@pytest.mark.parametrize("qualifier", ["symmetric", "skew-symmetric", "hermitian",
                                       "", "general extra"])
def test_only_general_header_read(tmp_path, qualifier):
    # a symmetric file stores one triangle; read as general it would lose
    # the (1, 2) entry
    text = (f"%%MatrixMarket matrix coordinate real {qualifier}\n2 2 3\n"
            "1 1 1.0\n2 1 2.0\n2 2 3.0\n")
    with pytest.raises(InputError, match="line 1: unsupported format"):
        load_matrix(_write(tmp_path, text))
