"""Tokens carried as one code each, against the str pipeline they replace.

The reference here is the str pipeline spelled out: the 256-width loop,
the family map and `" ".join`, with a dict lookup for ids.
"""

import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evmguard import corpus, tokenizer
from evmguard.corpus import Chunk, ClassCatalog, ContractRecord, _csv_rows, read_chunk, write_chunk
from evmguard.errors import MalformedInputError, ParseError
from evmguard.evm_bytecode import (
    INVALID_TOKEN,
    TOKENS,
    Opcodes,
    default_table,
    disassemble,
    normalize,
    opcodes,
    parse_cell,
    parse_hex,
    preprocess,
    render,
)
from evmguard.tokenizer import OOV_ID, encode, fit, save_vocab
from evmguard.trainer import encode_records

WIDTHS = default_table().widths
_FAMILIES = ((0x60, 0x7F), (0x80, 0x8F), (0x90, 0x9F), (0xA0, 0xA4))
_UNASSIGNED = bytes(b for b in range(256) if not WIDTHS[b])


def _str_disassemble(raw: bytes) -> list[str]:
    tokens, i = [], 0
    while i < len(raw):
        width = WIDTHS[raw[i]]
        tokens.append(f"{raw[i]:02x}" if width else INVALID_TOKEN)
        i += width or 1
    return tokens


def _family(tok: str) -> str:
    if tok != INVALID_TOKEN:
        for lo, hi in _FAMILIES:
            if lo <= int(tok, 16) <= hi:
                return f"{lo:02x}"
    return tok


def _str_preprocess(raw: bytes) -> list[str]:
    return [_family(tok) for tok in _str_disassemble(raw)]


def _lookup_ids(tokens, vocab, max_len) -> list[int]:
    row = [vocab.token_to_id.get(tok, OOV_ID) for tok in list(tokens)[:max_len]]
    return row + [0] * (max_len - len(row))


def _str_fit(corpus_tokens) -> tokenizer.Vocabulary:
    mapping = {tokenizer.PAD_TOKEN: 0, tokenizer.OOV_TOKEN: 1}
    for tokens in corpus_tokens:
        for tok in tokens:
            mapping.setdefault(tok, len(mapping))
    return tokenizer.Vocabulary(mapping)


# --- random bytecode: the cases the decoder must not get wrong ---

_PUSH = st.integers(0x60, 0x7F).flatmap(
    lambda op: st.binary(min_size=op - 0x5F, max_size=op - 0x5F).map(lambda arg: bytes([op]) + arg)
)
_PIECES = st.one_of(
    st.binary(max_size=24),
    st.lists(st.sampled_from(_UNASSIGNED), min_size=1, max_size=6).map(bytes),
    st.integers(1, 40).map(lambda k: b"\x7f" * k),  # PUSH32 runs: each swallows the next 32 bytes
    _PUSH,
)
_CUT_PUSH = st.integers(0x60, 0x7F).flatmap(
    lambda op: st.binary(max_size=op - 0x60).map(lambda arg: bytes([op]) + arg)
)
_BYTECODE = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda parts, tail: b"".join(parts) + tail, st.lists(_PIECES, max_size=12),
              st.one_of(st.just(b""), _CUT_PUSH)),
)
_VOCAB = fit([["60", "01", "xx", "61", "52", "80", "ff", "00"]])


@settings(max_examples=300, deadline=None)
@given(raw=_BYTECODE, max_len=st.integers(1, 400))
@example(raw=b"", max_len=1)
@example(raw=bytes(range(256)), max_len=300)
@example(raw=b"\x7f" * 40 + b"\x01", max_len=8)
@example(raw=b"\x00\x0c\x7f\x01\x02", max_len=4)
def test_codes_agree_with_the_str_pipeline(raw, max_len):
    want = _str_preprocess(raw)
    codes = opcodes(raw.hex())
    assert isinstance(codes, Opcodes) and codes.codes.dtype == np.uint16
    assert preprocess(raw.hex()) == want
    assert disassemble(raw) == tuple(_str_disassemble(raw))
    assert normalize(disassemble(raw)) == tuple(want)
    assert codes == tuple(want) and list(codes) == want and len(codes) == len(want)
    cell = render(codes)
    assert cell == " ".join(want)
    assert parse_cell(cell) == codes
    seq = encode(codes, _VOCAB, max_len)
    assert seq.ids.tolist() == _lookup_ids(want, _VOCAB, max_len)
    assert seq.true_length == min(len(want), max_len)
    assert encode(want, _VOCAB, max_len).ids.tolist() == seq.ids.tolist()


def _reference_parse_hex(text):
    """The hex check spelled out: the first non-hex character, then an odd length."""
    body = text.strip()
    body = body[2:] if body[:2] in ("0x", "0X") else body
    for pos, ch in enumerate(body):
        if ch not in "0123456789abcdefABCDEF":
            return f"invalid hex digit {ch!r} at position {pos}"
    if len(body) % 2:
        return f"odd number of hex digits ({len(body)}); bytecode must be whole bytes"
    return bytes(int(body[i : i + 2], 16) for i in range(0, len(body), 2))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789abcdefABx \t\n\u0660\uff10g", max_size=12))
@example("60 01")
@example("0x6001\n02")
@example("600")
def test_parse_hex_matches_the_check_spelled_out(text):
    want = _reference_parse_hex(text)
    if isinstance(want, bytes):
        assert parse_hex(text) == want
    else:
        with pytest.raises(MalformedInputError) as exc:
            parse_hex(text)
        assert str(exc.value) == want


def test_opcodes_read_as_a_tuple_of_str():
    codes = parse_cell("60 xx 61 00")
    as_tuple = ("60", "xx", "61", "00")
    assert codes == as_tuple and as_tuple == codes and hash(codes) == hash(as_tuple)
    assert codes != list(as_tuple)
    assert codes[1] == "xx" and codes[-1] == "00" and codes[1:3] == ("xx", "61")
    assert isinstance(codes[1:3], Opcodes)
    assert "61" in codes and codes.index("61") == 2 and set(codes) == set(as_tuple)
    assert ContractRecord("a", codes, (True,)) == ContractRecord("a", as_tuple, (True,))


# --- all 257 cell tokens, a literal "61" next to "xx" ---


def test_every_cell_token_round_trips_and_61_stays_apart_from_xx(tmp_path):
    every = list(TOKENS)
    assert every[0x61] == "61" and every[-1] == "xx" and len(every) == 257
    rng = np.random.default_rng(0)
    rows = [
        tuple(every),
        ("61", "xx", "61", "xx", "xx", "61"),
        tuple(rng.permutation(every)),
        ("xx",),
        ("61",),
        (),
    ]
    catalog = ClassCatalog(("A",))
    written = Chunk(0, tuple(ContractRecord(f"0x{i:02x}", t, (i % 2 == 0,)) for i, t in enumerate(rows)))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_chunk(written, first, catalog)
    read = read_chunk(first, catalog)
    assert all(isinstance(r.tokens, Opcodes) for r in read.records)
    assert [r.tokens for r in read.records] == list(rows)
    assert read == written
    write_chunk(read, second, catalog)
    assert second.read_bytes() == first.read_bytes()

    vocabularies = [
        fit([["61", "xx", "60"]]),
        fit([["61", "60"]]),  # "xx" is OOV, "61" is not
        fit([["xx", "60"]]),  # "61" is OOV, "xx" is not
        fit([every]),
    ]
    for vocab in vocabularies:
        want = [_lookup_ids(t, vocab, 300) for t in rows]
        assert encode_records(read.records, vocab, 300).ids.tolist() == want
        assert encode_records(written.records, vocab, 300).ids.tolist() == want


# --- held memory of a long chunk ---

# read_chunk + encode_records of this chunk held 63.1 B/token (peak 63.3) with one str
# per token, and 6.1 B/token (peak 6.6) with codes: 2 B of codes, 4 B of ids, the rest
# per-record objects. The bound sits between the two with room for allocator noise.
HELD_BYTES_PER_TOKEN = 12


def test_long_chunk_is_held_in_a_few_bytes_a_token(tmp_path):
    records, length = 32, 4100
    rng = np.random.default_rng(3)
    alphabet = sorted(set(_str_preprocess(bytes(range(256)))))
    chunk = Chunk(0, tuple(
        ContractRecord(f"0x{i:040x}", tuple(rng.choice(alphabet, size=length).tolist()), (bool(i % 2),))
        for i in range(records)
    ))
    path = tmp_path / "long.csv"
    write_chunk(chunk, path, ClassCatalog(("A",)))
    vocab = fit([alphabet])
    tracemalloc.start()
    try:
        read = read_chunk(path)
        encoded = encode_records(read.records, vocab, length)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tokens = records * length
    assert encoded.ids.shape == (records, length)
    assert held / tokens < HELD_BYTES_PER_TOKEN, f"{held / tokens:.1f} B/token held"
    assert peak / tokens < HELD_BYTES_PER_TOKEN, f"{peak / tokens:.1f} B/token at peak"


# --- fit from codes: the same vocabulary, byte for byte ---


def _acceptance_train_records():
    """The records tests/test_acceptance.py's `pipeline` fixture fits on."""
    spec = corpus.default_synth_spec(3)
    records = corpus.synth_generate(spec, corpus.all_label_combos(3, 120), seed=7)
    return corpus.split(records, 7)[0], spec.catalog


def _synth_records():
    spec = corpus.default_synth_spec(5, 30, 90)
    return corpus.synth_generate(spec, corpus.all_label_combos(5, 6), seed=11), spec.catalog


@pytest.mark.parametrize("make", [_acceptance_train_records, _synth_records])
def test_fit_on_codes_writes_the_str_fit_vocabulary(tmp_path, make):
    records, catalog = make()
    write_chunk(Chunk(0, tuple(records)), tmp_path / "chunk.csv", catalog)
    read = read_chunk(tmp_path / "chunk.csv", catalog).records
    assert all(isinstance(r.tokens, Opcodes) for r in read)
    from_codes = fit(r.tokens for r in read)
    reference = _str_fit(list(r.tokens) for r in records)
    save_vocab(from_codes, tmp_path / "codes.tsv")
    save_vocab(reference, tmp_path / "str.tsv")
    assert (tmp_path / "codes.tsv").read_bytes() == (tmp_path / "str.tsv").read_bytes()
    assert from_codes.fingerprint() == reference.fingerprint()
    assert fit(list(r.tokens) for r in records).token_to_id == reference.token_to_id


# --- chunk rows are the csv writer's bytes, rendered cells written as is ---

_CELL_TOKENS = st.sampled_from(["60", "xx", "61", "ff", "6A", "a,", '"', "\n", "\r", "é", " ", ""])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=6), st.lists(_CELL_TOKENS, max_size=5),
                          st.lists(st.booleans(), min_size=2, max_size=2)), max_size=4))
def test_write_chunk_writes_what_the_csv_writer_writes(rows):
    catalog = ClassCatalog(("A", 'b,"c"'))
    records = []
    for a, t, labels in rows:
        bad = [tok for tok in t if tok not in TOKENS]
        if bad:  # only opcode cell tokens make a record
            with pytest.raises(MalformedInputError) as exc:
                ContractRecord(a, tuple(t), tuple(labels))
            assert str(exc.value) == f"invalid opcode token {bad[0]!r}"
        else:
            records.append(ContractRecord(a, tuple(t), tuple(labels)))
    records = tuple(records)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["address", "bytecode", *catalog.names])
    writer.writerows([r.address, " ".join(r.tokens), *("1" if b else "0" for b in r.labels)]
                     for r in records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chunk.csv"
        write_chunk(Chunk(0, records), path, catalog)
        assert path.read_bytes() == want.getvalue().encode()


# --- CSV rows: split at commas where no quote can change them, else csv.reader ---


def _reference_rows(path):
    """csv.reader over the file: its rows, then ("error", message, line) if it raises."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        rows = []
        try:
            rows.extend(reader)
        except csv.Error as exc:
            rows.append(("error", f"line {reader.line_num}: bad CSV: {exc}"))
        return rows


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet='ab,"\r\n\0 é', max_size=40))
@example('a,"b\r\nc",d\n1,2\n')
@example('\n\r\n\r,\n"')
@example('a\0b\nc')
def test_csv_rows_are_what_csv_reader_gives(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(text.encode())
        want = _reference_rows(path)
        got = []
        with open(path, encoding="utf-8", newline="") as f:
            try:
                got.extend(_csv_rows(f))
            except ParseError as exc:
                got.append(("error", str(exc)))
    assert got == want
