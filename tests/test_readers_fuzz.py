"""Fuzzing the file readers: every blob or manifest either raises a typed
SfkError or is read back and written out again byte for byte."""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfk
from sfk import SfkError
from sfk.sparse24 import s24_from_bytes, s24_to_bytes

from conftest import dealt_bank

_DTYPE_NAME = {1: "real32", 2: "real64"}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _sfk1_blobs(d):
    out = []
    for dtype in ("real32", "real64"):
        sfk.save_matrix(sfk.rand_matrix(3, 5, seed=1), d / "seed.sfk", dtype=dtype)
        out.append((d / "seed.sfk").read_bytes())
    return out


def _s24_blobs():
    # 3x4 leaves four padding bits in every metadata byte; 2x16 fills them
    return [s24_to_bytes(sfk.sparsify24(sfk.rand_matrix(r, c, seed=2), mode))
            for (r, c), mode in (((3, 4), sfk.SOFT_THRESHOLD), ((2, 16), sfk.GREEDY_MAGNITUDE))]


def _vnmf_blobs(d):
    vm = sfk.venom_encode(sfk.rand_matrix(8, 16, seed=3), sfk.VenomParams(4, 8))
    sfk.save_venom(vm, d / "seed.vnm")
    return [(d / "seed.vnm").read_bytes()]


@st.composite
def mutated(draw, blobs):
    """A seed blob with a few bytes flipped, set, inserted or deleted, or cut short.

    Positions favour the first 48 bytes, where every header lives."""
    b = bytearray(draw(st.sampled_from(blobs)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "set", "insert", "delete", "truncate", "extend")))
        if kind == "truncate":
            del b[draw(st.integers(0, len(b))):]
            continue
        if kind == "extend":
            b += draw(st.binary(min_size=1, max_size=9))
            continue
        if not b:
            continue
        i = draw(st.integers(0, min(len(b), 48) - 1) | st.integers(0, len(b) - 1))
        if kind == "flip":
            b[i] ^= 1 << draw(st.integers(0, 7))
        elif kind == "set":
            b[i] = draw(st.integers(0, 255))
        elif kind == "insert":
            b[i:i] = draw(st.binary(min_size=1, max_size=4))
        else:
            del b[i]
    return bytes(b)


def _typed_error_or_round_trip(read, write, blob):
    try:
        obj = read(blob)
    except SfkError:
        return
    assert write(obj) == blob


@settings(max_examples=300)
@given(st.data())
def test_sfk1_reader_fuzz(scratch, data):
    blob = data.draw(mutated(_sfk1_blobs(scratch)))

    def read(b):
        (scratch / "in.sfk").write_bytes(b)
        return sfk.load_matrix(scratch / "in.sfk")

    def write(m):
        sfk.save_matrix(m, scratch / "out.sfk", dtype=_DTYPE_NAME[blob[4]])
        return (scratch / "out.sfk").read_bytes()

    _typed_error_or_round_trip(read, write, blob)


@settings(max_examples=300)
@given(st.data())
def test_s24f_reader_fuzz(data):
    blob = data.draw(mutated(_s24_blobs()))
    _typed_error_or_round_trip(s24_from_bytes, s24_to_bytes, blob)


@settings(max_examples=300)
@given(st.data())
def test_vnmf_reader_fuzz(scratch, data):
    blob = data.draw(mutated(_vnmf_blobs(scratch)))

    def read(b):
        (scratch / "in.vnm").write_bytes(b)
        return sfk.load_venom(scratch / "in.vnm")

    def write(vm):
        sfk.save_venom(vm, scratch / "out.vnm")
        return (scratch / "out.vnm").read_bytes()

    _typed_error_or_round_trip(read, write, blob)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=10,
)


BAD_MEANS_FILES = ["", ".", "..", "bank.json", "missing.sfk", "../bank.means.sfk", "bank.means.sfk\0"]


@st.composite
def near_valid_manifests(draw, manifest):
    """The saved manifest with a key dropped or added, a value replaced,
    or a column index changed."""
    doc = json.loads(json.dumps(manifest))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("drop", "replace", "column", "means_file")))
        if kind == "drop" and doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif kind == "replace":
            doc[draw(st.sampled_from(sorted(manifest)) | st.text(max_size=4))] = draw(json_values)
        elif kind == "column" and isinstance(doc.get("column_sets"), list) and doc["column_sets"]:
            cs = draw(st.sampled_from(doc["column_sets"]))
            if isinstance(cs, list) and cs:
                cs[draw(st.integers(0, len(cs) - 1))] = draw(st.integers(-1, 40) | json_values)
        else:
            doc["means_file"] = draw(st.sampled_from(BAD_MEANS_FILES))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def bank_dir(scratch):
    d = scratch / "bank"
    d.mkdir()
    sfk.save_bank(dealt_bank(8, 32, 16, 4, seed=2), d / "bank")
    return d


@settings(max_examples=300)
@given(st.data())
def test_load_bank_manifest_fuzz(scratch, bank_dir, data):
    seed = (bank_dir / "bank.json").read_text()
    text = data.draw(
        near_valid_manifests(json.loads(seed))
        | mutated([seed.encode()]).map(lambda b: b.decode("latin-1"))
    )
    (bank_dir / "in.json").write_text(text, encoding="latin-1")
    try:
        bank = sfk.load_bank(bank_dir / "in")
    except SfkError:
        return
    shutil.rmtree(scratch / "rt", ignore_errors=True)
    (scratch / "rt").mkdir()
    sfk.save_bank(bank, scratch / "rt" / "bank")
    doc = json.loads((bank_dir / "in.json").read_bytes())
    saved = json.loads((scratch / "rt" / "bank.json").read_text())
    assert saved == dict(doc, means_file="bank.means.sfk")
    means_in = bank_dir / doc["means_file"]
    assert (scratch / "rt" / "bank.means.sfk").read_bytes() == means_in.read_bytes()


def test_unexplained_bytes_are_rejected(scratch, bank_dir):
    """Regression cases: bytes a reader ignored used to load silently."""
    blob = bytearray(_sfk1_blobs(scratch)[1])
    blob[6] = 1  # reserved header byte
    (scratch / "bad.sfk").write_bytes(blob)
    with pytest.raises(sfk.FormatError):
        sfk.load_matrix(scratch / "bad.sfk")
    blob = bytearray(_s24_blobs()[0])
    blob[-1] |= 0x80  # padding bit after the last 2-bit index of a 3x4 row
    with pytest.raises(sfk.FormatError):
        s24_from_bytes(bytes(blob))
    doc = json.loads((bank_dir / "bank.json").read_text())
    for text in (json.dumps(dict(doc, extra=1)).encode(), json.dumps(doc).encode() + b"\x80",
                 json.dumps(dict(doc, means_file="")).encode()):
        (bank_dir / "bad.json").write_bytes(text)
        with pytest.raises(sfk.InputError):
            sfk.load_bank(bank_dir / "bad")
