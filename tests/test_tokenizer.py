"""Vocabulary fitting, sequence encoding, and TSV persistence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard.corpus import MAX_FIELD_CHARS, ContractRecord
from evmguard.errors import ConfigError, EvmGuardError, MalformedInputError, ParseError
from evmguard.evm_bytecode import MAX_CODE_BYTES
from evmguard.tokenizer import (
    OOV_ID,
    PAD_ID,
    SEQUENCE_LENGTH_CEILING,
    Vocabulary,
    encode,
    encode_batch,
    fit,
    load_vocab,
    save_vocab,
)
from evmguard.trainer import encode_records

TOKENS = st.text(alphabet="0123456789abcdef", min_size=2, max_size=2)


class TestFit:
    def test_reserved_ids(self):
        v = fit([["60", "00"]])
        assert v.token_to_id["<PAD>"] == PAD_ID
        assert v.token_to_id["<OOV>"] == OOV_ID

    def test_first_appearance_order(self):
        v = fit([["aa", "bb", "aa"], ["cc", "bb"]])
        assert v.token_to_id["aa"] == 2
        assert v.token_to_id["bb"] == 3
        assert v.token_to_id["cc"] == 4

    def test_empty_corpus(self):
        v = fit([])
        assert len(v) == 2

    def test_contiguity_enforced(self):
        with pytest.raises(ParseError):
            Vocabulary({"<PAD>": 0, "<OOV>": 1, "aa": 5})

    def test_reserved_required(self):
        with pytest.raises(ParseError):
            Vocabulary({"<PAD>": 0, "aa": 1})


class TestEncode:
    def setup_method(self):
        self.vocab = fit([["aa", "bb", "cc"]])

    def test_known_tokens(self):
        seq = encode(["aa", "cc"], self.vocab, max_sequence_length=5)
        assert seq.ids.tolist() == [2, 4, 0, 0, 0]
        assert seq.true_length == 2

    def test_unknown_maps_to_oov(self):
        seq = encode(["aa", "dd"], self.vocab, max_sequence_length=4)
        assert seq.ids.tolist() == [2, OOV_ID, 0, 0]
        for bad in ("zz", "<OOV>", "<PAD>"):  # not opcode tokens at all
            with pytest.raises(MalformedInputError, match=f"invalid opcode token {bad!r}"):
                encode(["aa", bad], self.vocab, max_sequence_length=4)

    def test_tail_truncation(self):
        seq = encode(["aa", "bb", "cc"], self.vocab, max_sequence_length=2)
        assert seq.ids.tolist() == [2, 3]
        assert seq.true_length == 2

    def test_empty_sequence(self):
        seq = encode([], self.vocab, max_sequence_length=3)
        assert seq.ids.tolist() == [0, 0, 0]
        assert seq.true_length == 0

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_length_below_one_is_a_config_error(self, max_len):
        with pytest.raises(ConfigError):
            encode(["aa"], self.vocab, max_len)
        for sequences in ([], [["aa"]]):
            with pytest.raises(ConfigError):
                encode_batch(sequences, self.vocab, max_len)

    @pytest.mark.parametrize("max_len", [SEQUENCE_LENGTH_CEILING + 1, 2**62])
    def test_length_above_the_ceiling_is_a_config_error(self, max_len):
        with pytest.raises(ConfigError):
            encode(["aa"], self.vocab, max_len)
        for sequences in ([], [["aa"]]):
            with pytest.raises(ConfigError):
                encode_batch(sequences, self.vocab, max_len)

    def test_ceiling_is_the_largest_code_the_evm_accepts(self):
        # EIP-3860 initcode: 49,152 bytes, at most one token each
        assert SEQUENCE_LENGTH_CEILING == MAX_CODE_BYTES == 49_152
        assert MAX_FIELD_CHARS == 3 * MAX_CODE_BYTES
        longest = ["aa"] * (SEQUENCE_LENGTH_CEILING + 1)
        mat = encode_batch([longest], self.vocab, SEQUENCE_LENGTH_CEILING)
        assert mat.shape == (1, SEQUENCE_LENGTH_CEILING)
        assert (mat == 2).all()

    def test_batch_shape(self):
        mat = encode_batch([["aa"], ["bb", "cc"]], self.vocab, 4)
        assert mat.shape == (2, 4)
        assert mat.dtype == np.int32

    def test_empty_batch(self):
        mat = encode_batch([], self.vocab, 4)
        assert mat.shape == (0, 4)


def _reference_ids(tokens, mapping, max_len):
    """Dict lookup, one token at a time: known id or 1, cut at max_len, then 0s."""
    row = [mapping[t] if t in mapping else 1 for t in list(tokens)[:max_len]]
    return row + [0] * (max_len - len(row))


@settings(max_examples=150, deadline=None)
@given(
    sequences=st.lists(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "zz", "<OOV>", "<PAD>"]),
                                max_size=10), max_size=5),
    max_len=st.integers(min_value=1, max_value=8),
)
def test_encoders_match_a_dict_lookup_for_lists_and_tuples(sequences, max_len):
    vocab = fit([["aa", "bb", "cc"]])
    not_opcodes = {"zz", "<OOV>", "<PAD>"}
    if any(not_opcodes & set(t) for t in sequences):
        for shape in (list, tuple):
            with pytest.raises(MalformedInputError):
                encode_batch([shape(t) for t in sequences], vocab, max_len)
        bad = next(t for t in sequences if not_opcodes & set(t))
        with pytest.raises(MalformedInputError):
            encode(bad, vocab, max_len)
        with pytest.raises(MalformedInputError):
            ContractRecord("0x00", tuple(bad), (False,))
        sequences = [t for t in sequences if not not_opcodes & set(t)]
    want = np.array([_reference_ids(t, vocab.token_to_id, max_len) for t in sequences],
                    dtype=np.int32).reshape(len(sequences), max_len)
    for shape in (list, tuple):
        seqs = [shape(t) for t in sequences]
        for seq, row in zip(seqs, want):
            got = encode(seq, vocab, max_len)
            assert got.ids.dtype == np.int32 and got.ids.tolist() == row.tolist()
            assert got.true_length == min(len(seq), max_len)
        batch = encode_batch(seqs, vocab, max_len)
        assert batch.dtype == np.int32 and batch.shape == want.shape
        assert np.array_equal(batch, want)
    records = [ContractRecord(f"0x{i:02x}", tuple(t), (False,)) for i, t in enumerate(sequences)]
    enc = encode_records(records, vocab, max_len)
    assert enc.ids.dtype == np.int32 and enc.ids.shape == want.shape
    assert np.array_equal(enc.ids, want)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        v = fit([["aa", "bb"], ["cc"]])
        path = tmp_path / "vocab.tsv"
        save_vocab(v, path)
        assert load_vocab(path).token_to_id == v.token_to_id

    def test_fingerprint_survives_round_trip(self, tmp_path):
        v = fit([["aa", "bb"]])
        path = tmp_path / "vocab.tsv"
        save_vocab(v, path)
        assert load_vocab(path).fingerprint() == v.fingerprint()

    def test_fingerprint_changes_with_content(self):
        assert fit([["aa"]]).fingerprint() != fit([["bb"]]).fingerprint()

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<PAD>\t0\n<OOV>\t1\naa\t2\naa\t3\n")
        with pytest.raises(ParseError, match="line 4"):
            load_vocab(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<PAD>\t0\n<OOV>\t1\naa\t2\nbb\t2\n")
        with pytest.raises(ParseError):
            load_vocab(path)

    def test_bad_id_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<PAD>\t0\n<OOV>\t1\naa\tzz\n")
        with pytest.raises(ParseError, match="line 3"):
            load_vocab(path)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"<PAD>\t0\n<OOV>\t1\n\xff\t2\n")
        with pytest.raises(ParseError, match="line 3: not UTF-8 text"):
            load_vocab(path)

    @pytest.mark.parametrize("token", ["6A", "zz", "6", "<UNK>", "60 "])
    def test_token_no_encode_can_reach_is_rejected(self, tmp_path, token):
        # encode() looks up only the 257 cell tokens, so such a token would
        # load and then silently leave its contracts' ids at <OOV>
        path = tmp_path / "vocab.tsv"
        path.write_text(f"<PAD>\t0\n<OOV>\t1\n60\t2\n{token}\t3\n")
        with pytest.raises(ParseError, match=f"line 4: token {token!r}"):
            load_vocab(path)

    def test_every_cell_token_loads(self, tmp_path):
        v = fit([[f"{b:02x}" for b in range(256)] + ["xx"]])
        path = tmp_path / "vocab.tsv"
        save_vocab(v, path)
        assert load_vocab(path).token_to_id == v.token_to_id

    def test_missing_reserved_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("aa\t0\nbb\t1\n")
        with pytest.raises(ParseError):
            load_vocab(path)


@given(st.lists(st.lists(TOKENS, max_size=20), max_size=20))
def test_fit_ids_are_contiguous(corpus):
    v = fit(corpus)
    ids = sorted(v.token_to_id.values())
    assert ids == list(range(len(ids)))


@given(
    st.lists(TOKENS, max_size=50),
    st.integers(min_value=1, max_value=30),
)
def test_encode_always_fixed_length_and_in_range(tokens, max_len):
    v = fit([tokens[:10]])
    seq = encode(tokens, v, max_len)
    assert seq.ids.shape == (max_len,)
    assert seq.true_length == min(len(tokens), max_len)
    assert seq.ids.max(initial=0) < len(v)
    # everything past true_length is padding
    assert not seq.ids[seq.true_length :].any()


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=120),
    st.lists(st.sampled_from([b"<PAD>\t0", b"<OOV>\t1", b"aa\t2", b"\t", b"x\t-1", b""]),
             max_size=6).map(b"\n".join),
))
def test_load_vocab_returns_or_raises_package_errors(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "vocab.tsv"
    path.write_bytes(raw)
    try:
        load_vocab(path)
    except EvmGuardError:
        pass
