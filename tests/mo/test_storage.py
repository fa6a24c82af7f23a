"""The on-disk columnar MOFT format: round-trips, pinning, corruption.

Three guarantees under test:

* **round-trip** — ``save`` → ``load`` reproduces the table row for row
  (hypothesis drives oids/times/coords, both eager and mmap loads);
* **pinning** — the byte layout is explicit: little-endian dtypes, the
  magic/version preamble, 64-byte section alignment.  A file written
  here must load on any platform;
* **typed errors or nothing** — every corrupted byte sequence raises
  :class:`~repro.errors.MoftStorageError`; a numpy shape error or a
  silent wrong answer is a bug.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MoftStorageError
from repro.mo import MOFT
from repro.mo import storage
from repro.mo.moft import SegmentIndex
from repro.mo.storage import (
    ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    PREAMBLE,
    is_columnar_file,
    open_image,
    serialize_moft,
    table_from_image,
)


def small_moft():
    moft = MOFT("cars")
    moft.add_many(
        [
            ("car1", 0.0, 0.0, 0.0),
            ("car1", 1.0, 10.0, 5.0),
            ("car2", 0.5, -3.25, 7.5),
            ("car2", 2.0, 4.0, -1.0),
            ("car3", 3.0, 0.125, 0.25),
        ]
    )
    return moft


def assert_same_table(actual: MOFT, expected: MOFT) -> None:
    assert actual.name == expected.name
    assert list(actual.tuples()) == list(expected.tuples())
    assert actual.objects() == expected.objects()
    for oid in expected.objects():
        assert actual.history(oid) == expected.history(oid)


# -- round-trips ---------------------------------------------------------------


class TestRoundTrip:
    def test_save_load_mmap(self, tmp_path):
        moft = small_moft()
        path = tmp_path / "cars.moft"
        nbytes = moft.save(path)
        assert nbytes == path.stat().st_size
        assert is_columnar_file(path)
        assert_same_table(MOFT.load(path), moft)

    def test_save_load_eager(self, tmp_path):
        moft = small_moft()
        path = tmp_path / "cars.moft"
        moft.save(path)
        assert_same_table(MOFT.load(path, mmap=False), moft)

    def test_int_oids(self, tmp_path):
        moft = MOFT("ints")
        moft.add_many([(7, 0.0, 1.0, 2.0), (7, 1.0, 3.0, 4.0), (-2, 0.0, 5.0, 6.0)])
        path = tmp_path / "ints.moft"
        moft.save(path)
        loaded = MOFT.load(path)
        assert_same_table(loaded, moft)
        # Integer ids come back as Python ints, not numpy scalars.
        assert all(type(oid) is int for oid in loaded.objects())

    def test_empty_moft(self, tmp_path):
        moft = MOFT("empty")
        path = tmp_path / "empty.moft"
        moft.save(path)
        loaded = MOFT.load(path)
        assert len(loaded) == 0
        assert loaded.objects() == set()

    def test_without_index(self, tmp_path):
        moft = small_moft()
        lean = tmp_path / "lean.moft"
        full = tmp_path / "full.moft"
        moft.save(lean, include_index=False)
        moft.save(full, include_index=True)
        assert lean.stat().st_size < full.stat().st_size
        assert_same_table(MOFT.load(lean), moft)

    def test_file_index_order_matches_recompute(self, tmp_path):
        """Per-object access of a loaded table reads the file's CSR
        index; a table that sorts its own index gives the same runs."""
        moft = small_moft()
        path = tmp_path / "cars.moft"
        moft.save(path)
        sorts = []
        build = SegmentIndex.build.__func__

        def counting_build(cls, *columns):
            sorts.append(cls)
            return build(cls, *columns)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SegmentIndex, "build", classmethod(counting_build))
            loaded = MOFT.load(path)
            loaded_index = loaded.segment_index()
            histories = {oid: loaded.history(oid) for oid in moft.objects()}
            assert sorts == []  # the file's index, not a sort
            t, x, y = loaded.as_arrays()
            recomputed = MOFT.from_columns(
                loaded.oid_column(), t, x, y, validate=False
            )
            recomputed_index = recomputed.segment_index()
            assert sorts == [SegmentIndex]
        for got, want in zip(loaded_index, recomputed_index):
            assert got.tolist() == want.tolist()
        for oid in sorted(moft.objects()):
            assert histories[oid] == recomputed.history(oid)
        np.testing.assert_array_equal(
            loaded.object_codes(), recomputed.object_codes()
        )

    def test_append_after_mmap_load(self, tmp_path):
        moft = small_moft()
        path = tmp_path / "cars.moft"
        moft.save(path)
        loaded = MOFT.load(path)
        loaded.add("car9", 9.0, 1.0, 2.0)
        assert loaded.position("car9", 9.0) is not None
        assert len(loaded) == len(moft) + 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(["A", "B", "névé"]),
                    st.integers(min_value=-5, max_value=5),
                ),
                st.integers(min_value=0, max_value=40),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            min_size=0,
            max_size=50,
            unique_by=lambda item: (item[0], item[1]),
        )
    )
    def test_roundtrip_property(self, tuples):
        moft = MOFT("prop")
        moft.add_many(
            [(oid, float(t), x, y) for oid, t, x, y in tuples]
        )
        image = serialize_moft(moft)
        loaded = table_from_image(open_image(image))
        assert_same_table(loaded, moft)


# -- format pinning ------------------------------------------------------------


class TestFormatPinning:
    def header(self, image: bytes) -> dict:
        magic, version, flags, header_len = PREAMBLE.unpack_from(image)
        assert magic == MAGIC
        assert version == FORMAT_VERSION
        assert flags == 0
        raw = bytes(image[PREAMBLE.size : PREAMBLE.size + header_len])
        return json.loads(raw.decode("utf-8"))

    def test_little_endian_dtypes(self):
        header = self.header(serialize_moft(small_moft()))
        dtypes = {
            name: spec["dtype"] for name, spec in header["sections"].items()
        }
        assert dtypes == {
            "t": "<f8",
            "x": "<f8",
            "y": "<f8",
            "oid_codes": "<u4",
            "oid_values": "bytes",
            "index_rows": "<i8",
            "index_times": "<f8",
            "index_offsets": "<i8",
        }

    def test_sections_are_aligned(self):
        header = self.header(serialize_moft(small_moft()))
        for name, spec in header["sections"].items():
            assert spec["offset"] % ALIGNMENT == 0, name

    def test_header_metadata(self):
        moft = small_moft()
        header = self.header(serialize_moft(moft))
        assert header["name"] == "cars"
        assert header["rows"] == len(moft)
        assert header["objects"] == len(moft.objects())
        assert header["oid_kind"] == "json"
        assert header["index"] is True

    def test_unsupported_oid_type_is_typed(self):
        moft = MOFT("weird")
        moft.add(("tuple", "oid"), 0.0, 1.0, 2.0)
        with pytest.raises(MoftStorageError):
            serialize_moft(moft)


# -- corruption ladder ---------------------------------------------------------


def corruptions():
    """Each entry mangles a valid image; every one must raise typed."""
    image = serialize_moft(small_moft())
    header_len = PREAMBLE.unpack_from(image)[3]

    def with_preamble(version=FORMAT_VERSION, flags=0, hlen=None, magic=MAGIC):
        out = bytearray(image)
        PREAMBLE.pack_into(
            out, 0, magic, version, flags,
            header_len if hlen is None else hlen,
        )
        return bytes(out)

    def with_header(mutate):
        raw = bytes(image[PREAMBLE.size : PREAMBLE.size + header_len])
        header = json.loads(raw.decode("utf-8"))
        mutate(header)
        blob = json.dumps(header).encode("utf-8")
        if len(blob) < header_len:
            # JSON tolerates trailing whitespace, so the declared header
            # length still parses and the mutated *content* is what trips
            # the validator.
            blob = blob + b" " * (header_len - len(blob))
        elif len(blob) > header_len:
            # Mutation does not fit the slot: the truncated JSON itself
            # is the corruption.
            blob = blob[:header_len]
        out = bytearray(image)
        out[PREAMBLE.size : PREAMBLE.size + header_len] = blob
        return bytes(out)

    yield "empty file", b""
    yield "truncated preamble", image[:6]
    yield "bad magic", with_preamble(magic=b"NOTMOFT\x00")
    yield "future version", with_preamble(version=FORMAT_VERSION + 1)
    yield "unknown flags", with_preamble(flags=1)
    yield "header past eof", with_preamble(hlen=2**31 - 1)
    yield "header not json", (
        image[: PREAMBLE.size] + b"\xff" * (len(image) - PREAMBLE.size)
    )
    yield "truncated payload", image[: PREAMBLE.size + header_len + 8]
    yield "rows mismatch", with_header(
        lambda h: h.__setitem__("rows", h["rows"] + 1)
    )
    yield "missing section", with_header(
        lambda h: h["sections"].pop("t")
    )
    yield "section past eof", with_header(
        lambda h: h["sections"]["t"].__setitem__("offset", 2**40)
    )
    yield "wrong dtype", with_header(
        lambda h: h["sections"]["t"].__setitem__("dtype", ">f8")
    )
    yield "oid code out of range", with_header(
        lambda h: h.__setitem__("objects", 1)
    )


class TestCorruption:
    @pytest.mark.parametrize(
        "label,blob", list(corruptions()), ids=[c[0] for c in corruptions()]
    )
    def test_corrupt_image_raises_typed(self, label, blob):
        with pytest.raises(MoftStorageError):
            table_from_image(open_image(blob, source=label))

    def test_corrupt_file_raises_typed(self, tmp_path):
        path = tmp_path / "bad.moft"
        path.write_bytes(MAGIC + b"\x00" * 3)
        with pytest.raises(MoftStorageError):
            MOFT.load(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        # A missing file is not a corrupt file: the standard error
        # passes through untranslated.
        with pytest.raises(FileNotFoundError):
            MOFT.load(tmp_path / "nope.moft")

    def test_csv_file_raises_typed(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("oid,t,x,y\ncar1,0.0,1.0,2.0\n")
        assert not is_columnar_file(path)
        with pytest.raises(MoftStorageError):
            MOFT.load(path)


class TestGoldenBytes:
    """The format's bytes, pinned: images of the paper's Table 1 hash
    exactly as the format defines them, whatever the table keeps in
    memory."""

    @staticmethod
    def digest(data: bytes) -> str:
        import hashlib

        return hashlib.sha256(data).hexdigest()

    def test_file_image(self):
        from repro.synth.paperdata import table1_moft

        assert self.digest(serialize_moft(table1_moft())) == (
            "ec05bd41e709a0a3b671f9920b6060c3e57cc4e18aadf7142e8d7004985b64e7"
        )

    def test_file_image_without_index(self):
        from repro.synth.paperdata import table1_moft

        image = serialize_moft(table1_moft(), include_index=False)
        assert self.digest(image) == (
            "17c5fb59266b27155dcee3ca4da7a94bef9589bdae9546f709b707f0fa28af13"
        )

    def test_shard_image(self):
        from repro.parallel.shm import serialize_shards
        from repro.synth.paperdata import table1_moft

        image = serialize_shards(table1_moft().partition_by_objects(3))
        assert self.digest(image.data) == (
            "0c1dbe044a7b1cd32bfb08c3c016b720ec1af91845d7df01de364bb526878524"
        )
