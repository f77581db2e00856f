"""Vocabulary fitting, sequence encoding, and TSV persistence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard.errors import ConfigError, EvmGuardError, ParseError
from evmguard.tokenizer import (
    OOV_ID,
    PAD_ID,
    Vocabulary,
    encode,
    encode_batch,
    fit,
    load_vocab,
    save_vocab,
)

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
        seq = encode(["aa", "zz"], self.vocab, max_sequence_length=4)
        assert seq.ids.tolist() == [2, OOV_ID, 0, 0]

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

    def test_batch_shape(self):
        mat = encode_batch([["aa"], ["bb", "cc"]], self.vocab, 4)
        assert mat.shape == (2, 4)
        assert mat.dtype == np.int32

    def test_empty_batch(self):
        mat = encode_batch([], self.vocab, 4)
        assert mat.shape == (0, 4)


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
