import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bentlattice import ShapeError
from bentlattice.fieldio import (_CHUNK_ROWS, format_float, read_csv,
                                 read_field_dump, write_csv, write_field_dump)

# NaN, -NaN, +-inf, +-0.0, the smallest and largest subnormals and the
# smallest normal, as float64 bits
_SPECIAL_BITS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                          5e-324, -2.2250738585072009e-308,
                          2.2250738585072014e-308]).view(np.uint64).tolist()
_ANY_BITS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS))


def _reference_csv(header, rows):
    """The dialect written one value at a time."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else f"{float(v):.17g}"
                       for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


class TestCsv:
    def test_floats_round_trip_exactly(self, tmp_path):
        values = [0.1 + 0.2, 1.0 / 3.0, 2.8556, -1.7e-308, 6.02e23]
        path = tmp_path / "vals.csv"
        write_csv(path, ["a", "b", "c", "d", "e"], [values])
        header, rows = read_csv(path)
        assert header == ["a", "b", "c", "d", "e"]
        assert rows[0] == values  # 17 significant digits are lossless

    def test_dialect(self, tmp_path):
        path = tmp_path / "dialect.csv"
        write_csv(path, ["x", "y"], [(1.5, 2.5), (3.5, 4.5)])
        raw = path.read_bytes()
        assert b"\r" not in raw           # LF endings
        assert raw.decode().splitlines()[0] == "x,y"

    def test_ragged_rows_allowed(self, tmp_path):
        path = tmp_path / "ragged.csv"
        write_csv(path, ["z", "n"], [(0.0, 1.0, 5.0), (1.0,)])
        _, rows = read_csv(path)
        assert rows[0] == [0.0, 1.0, 5.0]
        assert rows[1] == [1.0]

    def test_string_cells_pass_through(self, tmp_path):
        path = tmp_path / "status.csv"
        write_csv(path, ["P", "status"], [(0.5, "ok"), (float("nan"), "error")])
        _, rows = read_csv(path)
        assert rows[0][1] == "ok"
        assert rows[1][1] == "error"

    def test_format_is_17_digits(self):
        x = 0.12345678901234567
        assert float(format_float(x)) == x

    # each example overwrites the one CSV file of the shared tmp_path
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n_cols=st.integers(1, 6),
           n_rows=st.one_of(st.sampled_from([0, 1, _CHUNK_ROWS - 1,
                                             _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                             2 * _CHUNK_ROWS + 3]),
                            st.integers(0, 3 * _CHUNK_ROWS)))
    def test_float_array_matches_per_value_reference(self, tmp_path, data,
                                                     n_cols, n_rows):
        # a drawn block of any float64 bits, repeated to n_rows rows
        bits = data.draw(hnp.arrays(np.uint64, (data.draw(
            st.integers(1, 16)), n_cols), elements=_ANY_BITS))
        table = np.resize(bits, (n_rows, n_cols)).view(np.float64)
        header = [f"c{j}" for j in range(n_cols)]
        path = tmp_path / "block.csv"
        write_csv(path, header, table)
        assert path.read_bytes() == _reference_csv(header, table.tolist())

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(
        st.lists(_ANY_BITS.map(
            lambda b: float(np.array(b, np.uint64).view(np.float64))),
            max_size=8),
        st.one_of(st.none(), st.sampled_from(["ok", "error:AccuracyError"]),
                  st.text("abcxyz:_", max_size=12))), max_size=20))
    def test_rows_match_per_value_reference(self, tmp_path, rows):
        # ragged rows, some ending in a text cell
        rows = [values + ([text] if text is not None else [])
                for values, text in rows]
        path = tmp_path / "rows.csv"
        write_csv(path, ["z", "status"], rows)
        assert path.read_bytes() == _reference_csv(["z", "status"], rows)


class TestFieldDump:
    def test_single_component_round_trip(self, tmp_path):
        rng_free = np.exp(1j * np.linspace(0, 5, 64)) * np.linspace(1, 2, 64)
        path = tmp_path / "field.bin"
        write_field_dump(path, [rng_free], -10.0, 10.0, 1.25)
        comps, meta = read_field_dump(path)
        assert len(comps) == 1
        np.testing.assert_array_equal(comps[0], rng_free.astype(complex))
        assert meta == {"x_min": -10.0, "x_max": 10.0, "z": 1.25, "n": 64}

    def test_two_component_round_trip(self, tmp_path):
        psi1 = np.linspace(0, 1, 32) + 1j
        psi2 = np.linspace(1, 0, 32) - 2j
        path = tmp_path / "spinor.bin"
        write_field_dump(path, [psi1, psi2], -16.0, 16.0, 0.0)
        comps, meta = read_field_dump(path)
        assert len(comps) == 2
        np.testing.assert_array_equal(comps[1], psi2.astype(complex))

    # each example overwrites the one dump file of the shared tmp_path
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), ncomp=st.integers(1, 3), n=st.integers(1, 64),
           ends=st.tuples(st.floats(), st.floats(), st.floats()))
    def test_round_trip_is_bit_exact(self, tmp_path, data, ncomp, n, ends):
        # any float64 bits, NaN payloads, infinities and -0.0 included
        bits = data.draw(hnp.arrays(np.uint64, (ncomp, n, 2)))
        path = tmp_path / "drawn.bin"
        write_field_dump(path, list(bits.view(complex)[..., 0]), *ends)
        back, meta = read_field_dump(path)
        assert np.array_equal(np.array(back).view(np.uint64),
                              bits.reshape(ncomp, 2 * n))
        grid = [meta["x_min"], meta["x_max"], meta["z"]]
        assert np.array_equal(np.array(grid).view(np.uint64),
                              np.array(ends).view(np.uint64))
        assert meta["n"] == n

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_field_dump(tmp_path / "bad.bin",
                             [np.ones(4, complex), np.ones(5, complex)],
                             0.0, 1.0, 0.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ShapeError):
            read_field_dump(path)
