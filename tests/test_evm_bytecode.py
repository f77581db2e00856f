"""Bytecode parsing, disassembly, and opcode-family normalization."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evmguard.errors import MalformedInputError, ParseError
from evmguard.evm_bytecode import (
    INVALID_TOKEN,
    OpcodeTable,
    default_table,
    disassemble,
    load_table,
    normalize,
    parse_hex,
    parse_rendered,
    preprocess,
    render,
)

TABLE = default_table()


class TestParseHex:
    def test_plain(self):
        assert parse_hex("6001") == b"\x60\x01"

    def test_0x_prefix_stripped(self):
        assert parse_hex("0x6001") == b"\x60\x01"
        assert parse_hex("0X6001") == b"\x60\x01"

    def test_empty_is_valid(self):
        assert parse_hex("") == b""
        assert parse_hex("0x") == b""

    def test_mixed_case(self):
        assert parse_hex("Ff") == b"\xff"

    def test_odd_length_rejected(self):
        with pytest.raises(MalformedInputError):
            parse_hex("600")

    def test_non_hex_rejected_with_position(self):
        with pytest.raises(MalformedInputError, match="position 2"):
            parse_hex("60zz")


class TestOpcodeTable:
    def test_push_operand_counts(self):
        for k in range(1, 33):
            assert TABLE.operand_count(0x60 + k - 1) == k

    def test_mnemonics(self):
        assert TABLE.mnemonic(0x00) == "STOP"
        assert TABLE.mnemonic(0xFF) == "SELFDESTRUCT"
        assert TABLE.mnemonic(0x60) == "PUSH1"

    def test_unassigned_bytes_absent(self):
        assert 0x0C not in TABLE
        assert 0xEF not in TABLE

    def test_load_rejects_duplicate(self):
        with pytest.raises(ParseError, match="line 2"):
            load_table(["00 STOP 0", "00 AGAIN 0"])

    def test_load_rejects_bad_field_count(self):
        with pytest.raises(ParseError):
            load_table(["00 STOP"])

    def test_load_skips_comments_and_blanks(self):
        t = load_table(["# comment", "", "00 STOP 0"])
        assert t.mnemonic(0x00) == "STOP"

    def test_push_operand_mismatch_rejected(self):
        with pytest.raises(ParseError):
            OpcodeTable({0x60: ("PUSH1", 3)})

    def test_default_table_parsed_once(self):
        assert default_table() is default_table()

    def test_shared_table_is_read_only(self):
        with pytest.raises(TypeError):
            default_table().entries[0x0C] = ("NEW", 0)
        assert 0x0C not in default_table()

    def test_table_copies_its_input(self):
        source = {0x00: ("STOP", 0)}
        table = OpcodeTable(source)
        source[0x01] = ("ADD", 0)
        assert 0x01 not in table


class TestDisassemble:
    def test_push_operand_elided(self):
        assert disassemble(b"\x60\x01") == ["60"]

    def test_push32_swallows_32_bytes(self):
        raw = b"\x7f" + bytes(32) + b"\x00"
        assert disassemble(raw) == ["7f", "00"]

    def test_truncated_push_still_emits(self):
        # PUSH2 with only one operand byte left: token kept, scan ends
        assert disassemble(b"\x61\x01") == ["61"]

    def test_unknown_byte_becomes_sentinel(self):
        assert disassemble(b"\x0c") == [INVALID_TOKEN]

    def test_empty(self):
        assert disassemble(b"") == []

    def test_operands_never_decoded_as_opcodes(self):
        # PUSH1 ff: the ff is an operand, not SELFDESTRUCT
        assert disassemble(b"\x60\xff\x01") == ["60", "01"]

    def test_all_256_bytes_match_a_freshly_parsed_table(self):
        text = resources.files("evmguard.data").joinpath("opcodes.txt").read_text()
        fresh = load_table(text.splitlines())

        def reference(raw):  # linear scan straight from the table's entries
            tokens, i = [], 0
            while i < len(raw):
                entry = fresh.entries.get(raw[i])
                tokens.append(f"{raw[i]:02x}" if entry else INVALID_TOKEN)
                i += 1 + (entry[1] if entry else 0)
            return normalize(tokens)

        every_byte = bytes(range(256))
        assert preprocess(every_byte.hex()) == reference(every_byte)
        assert preprocess(every_byte.hex(), fresh) == reference(every_byte)
        for b in range(256):
            assert preprocess(f"{b:02x}") == reference(bytes([b]))

    def test_all_256_bytes_total(self):
        for b in range(256):
            tokens = disassemble(bytes([b]))
            assert len(tokens) == 1
            if b in TABLE:
                assert tokens[0] == f"{b:02x}"
            else:
                assert tokens[0] == INVALID_TOKEN


class TestNormalize:
    def test_push_family_merges(self):
        for k in range(0x60, 0x80):
            assert normalize([f"{k:02x}"]) == ["60"]

    def test_dup_family_merges(self):
        for k in range(0x80, 0x90):
            assert normalize([f"{k:02x}"]) == ["80"]

    def test_swap_family_merges(self):
        for k in range(0x90, 0xA0):
            assert normalize([f"{k:02x}"]) == ["90"]

    def test_log_family_merges(self):
        for k in range(0xA0, 0xA5):
            assert normalize([f"{k:02x}"]) == ["a0"]

    def test_non_family_untouched(self):
        assert normalize(["00", "01", "ff", INVALID_TOKEN]) == [
            "00",
            "01",
            "ff",
            INVALID_TOKEN,
        ]

    def test_length_preserved(self):
        tokens = ["61", "85", "9f", "a4", "00", "xx"]
        assert len(normalize(tokens)) == len(tokens)


class TestRenderRoundTrip:
    def test_render(self):
        assert render(["60", "00"]) == "60 00"

    def test_round_trip(self):
        tokens = ["60", "80", "xx", "ff"]
        assert parse_rendered(render(tokens)) == tokens

    def test_empty_round_trip(self):
        assert parse_rendered(render([])) == []

    def test_bad_token_rejected(self):
        with pytest.raises(ParseError):
            parse_rendered("60 nope")


class TestPreprocess:
    def test_push_merge_and_elide(self):
        assert preprocess("6001") == ["60"]

    def test_spec_of_record(self):
        # PUSH1 60, PUSH1 40, MSTORE -> all PUSH merged, operands gone
        assert preprocess("6060604052") == ["60", "60", "52"]

    def test_invalid_bytes_sentineled(self):
        assert preprocess("0c0c") == [INVALID_TOKEN, INVALID_TOKEN]

    def test_empty_contract(self):
        assert preprocess("0x") == []


@given(st.binary(max_size=400))
def test_disassemble_never_longer_than_input(raw):
    tokens = disassemble(raw)
    assert len(tokens) <= len(raw)
    assert all(len(t) == 2 for t in tokens)


@given(st.binary(max_size=400))
def test_normalize_is_idempotent_and_length_preserving(raw):
    tokens = disassemble(raw)
    once = normalize(tokens)
    assert len(once) == len(tokens)
    assert normalize(once) == once


@given(st.binary(max_size=400))
def test_preprocess_round_trips_through_render(raw):
    tokens = normalize(disassemble(raw))
    assert parse_rendered(render(tokens)) == tokens


@given(st.integers(min_value=1, max_value=32), st.data())
def test_push_operand_elision_for_every_width(k, data):
    operands = data.draw(st.binary(min_size=k, max_size=k))
    raw = bytes([0x60 + k - 1]) + operands
    assert disassemble(raw) == [f"{0x60 + k - 1:02x}"]
    assert normalize(disassemble(raw)) == ["60"]
