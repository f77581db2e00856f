"""Bytecode parsing, disassembly, and opcode-family normalization."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evmguard.corpus import Chunk, ClassCatalog, ContractRecord, read_chunk, write_chunk
from evmguard.errors import MalformedInputError, ParseError
from evmguard.evm_bytecode import (
    INVALID_TOKEN,
    default_table,
    disassemble,
    normalize,
    parse_cell,
    parse_hex,
    preprocess,
    render,
)

TABLE = default_table()


def _operand_counts_from_text() -> dict[int, int]:
    """byte -> operand count, read straight from the text of opcodes.txt."""
    text = resources.files("evmguard.data").joinpath("opcodes.txt").read_text()
    counts = {}
    for line in text.splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            assert len(fields) == 3 and int(fields[0], 16) not in counts
            counts[int(fields[0], 16)] = int(fields[2])
    return counts


OPERAND_COUNTS = _operand_counts_from_text()


def _reference_preprocess(raw: bytes) -> list[str]:
    """Linear scan straight from the table's text, then normalize."""
    tokens, i = [], 0
    while i < len(raw):
        known = raw[i] in OPERAND_COUNTS
        tokens.append(f"{raw[i]:02x}" if known else INVALID_TOKEN)
        i += 1 + OPERAND_COUNTS[raw[i]] if known else 1
    return list(normalize(tokens))


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

    @pytest.mark.parametrize(
        "text, position",
        [("60 01", 2), ("0x6001\n02", 4), ("60\t01", 2), ("6001" * 500 + "g0", 2000),
         ("60\u0661", 2)],
    )
    def test_inner_whitespace_and_non_ascii_rejected_with_position(self, text, position):
        # bytes.fromhex alone would accept the inner whitespace
        with pytest.raises(MalformedInputError, match=f"position {position}$"):
            parse_hex(text)

    @given(st.binary(max_size=200), st.sampled_from(["", "0x", "0X"]), st.booleans())
    def test_valid_hex_round_trips(self, raw, prefix, upper):
        text = raw.hex().upper() if upper else raw.hex()
        assert parse_hex(f" {prefix}{text}\n") == raw


class TestOpcodeTable:
    def test_push_operand_counts(self):
        for k in range(1, 33):
            assert TABLE.widths[0x60 + k - 1] == 1 + k

    def test_unassigned_bytes_absent(self):
        for b in (0x0C, 0xEF):
            assert TABLE.widths[b] == 0
            assert b not in TABLE.entries

    def test_entries_are_the_assigned_bytes(self):
        assert TABLE.entries == set(OPERAND_COUNTS)
        assert TABLE.entries == {b for b, w in enumerate(TABLE.widths) if w}

    def test_default_table_parsed_once(self):
        assert default_table() is default_table()

    def test_shared_table_is_read_only(self):
        with pytest.raises(TypeError):
            default_table().widths[0x0C] = 1
        assert default_table().widths[0x0C] == 0


class TestDisassemble:
    def test_push_operand_elided(self):
        assert disassemble(b"\x60\x01") == ("60",)

    def test_push32_swallows_32_bytes(self):
        raw = b"\x7f" + bytes(32) + b"\x00"
        assert disassemble(raw) == ("7f", "00")

    def test_truncated_push_still_emits(self):
        # PUSH2 with only one operand byte left: token kept, scan ends
        assert disassemble(b"\x61\x01") == ("61",)

    def test_unknown_byte_becomes_sentinel(self):
        assert disassemble(b"\x0c") == (INVALID_TOKEN,)

    def test_empty(self):
        assert disassemble(b"") == ()

    def test_operands_never_decoded_as_opcodes(self):
        # PUSH1 ff: the ff is an operand, not SELFDESTRUCT
        assert disassemble(b"\x60\xff\x01") == ("60", "01")

    def test_all_256_bytes_match_a_freshly_parsed_table(self):
        every_byte = bytes(range(256))
        assert preprocess(every_byte.hex()) == _reference_preprocess(every_byte)
        for b in range(256):
            assert preprocess(f"{b:02x}") == _reference_preprocess(bytes([b]))

    def test_all_256_bytes_total(self):
        for b in range(256):
            tokens = disassemble(bytes([b]))
            assert len(tokens) == 1
            if TABLE.widths[b]:
                assert tokens[0] == f"{b:02x}"
            else:
                assert tokens[0] == INVALID_TOKEN


class TestNormalize:
    def test_push_family_merges(self):
        for k in range(0x60, 0x80):
            assert normalize([f"{k:02x}"]) == ("60",)

    def test_dup_family_merges(self):
        for k in range(0x80, 0x90):
            assert normalize([f"{k:02x}"]) == ("80",)

    def test_swap_family_merges(self):
        for k in range(0x90, 0xA0):
            assert normalize([f"{k:02x}"]) == ("90",)

    def test_log_family_merges(self):
        for k in range(0xA0, 0xA5):
            assert normalize([f"{k:02x}"]) == ("a0",)

    def test_non_family_untouched(self):
        assert normalize(["00", "01", "ff", INVALID_TOKEN]) == (
            "00",
            "01",
            "ff",
            INVALID_TOKEN,
        )

    def test_length_preserved(self):
        tokens = ["61", "85", "9f", "a4", "00", "xx"]
        assert len(normalize(tokens)) == len(tokens)

    def test_every_two_digit_token_matches_the_family_ranges(self):
        def reference(tok):  # the range scan normalize used to run per token
            byte = int(tok, 16)
            for lo, hi, head in ((0x60, 0x7F, 0x60), (0x80, 0x8F, 0x80),
                                 (0x90, 0x9F, 0x90), (0xA0, 0xA4, 0xA0)):
                if lo <= byte <= hi:
                    return f"{head:02x}"
            return tok

        tokens = [f"{b:02x}" for b in range(256)] + [INVALID_TOKEN]
        want = tuple(INVALID_TOKEN if t == INVALID_TOKEN else reference(t) for t in tokens)
        assert normalize(tokens) == want
        for upper in {t.upper() for t in tokens} - set(tokens):  # not cell tokens
            with pytest.raises(MalformedInputError, match=f"invalid opcode token '{upper}'"):
                normalize(["60", upper])


class TestRenderRoundTrip:
    def test_render(self):
        assert render(["60", "00"]) == "60 00"

    def test_round_trip(self):
        tokens = ("60", "80", "xx", "ff")
        assert parse_cell(render(tokens)) == tokens

    def test_empty_round_trip(self):
        assert parse_cell(render([])) == ()

    def test_bad_token_rejected(self):
        with pytest.raises(ParseError):
            parse_cell("60 nope")


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
    assert parse_cell(render(tokens)) == tokens


@given(st.integers(min_value=1, max_value=32), st.data())
def test_push_operand_elision_for_every_width(k, data):
    operands = data.draw(st.binary(min_size=k, max_size=k))
    raw = bytes([0x60 + k - 1]) + operands
    assert disassemble(raw) == (f"{0x60 + k - 1:02x}",)
    assert normalize(disassemble(raw)) == ("60",)


@given(st.binary(max_size=600))
def test_preprocess_matches_a_linear_scan_of_the_table_text(raw):
    assert preprocess(raw.hex()) == _reference_preprocess(raw)


# --- the chunk-CSV token grammar, against a reference that splits by hand ---

_LOWER_HEX = set("0123456789abcdef")


def _reference_parse(text):
    """(tokens, None) if `text` is "" or single-space-separated tokens, each "xx" or two
    of 0-9a-f; otherwise (None, the first token between single spaces that is neither)."""
    if text == "":
        return [], None
    tokens, token = [], ""
    for ch in text + " ":
        if ch != " ":
            token += ch
        elif token == "xx" or (len(token) == 2 and set(token) <= _LOWER_HEX):
            tokens.append(token)
            token = ""
        else:
            return None, token
    return tokens, None


_VALID_TOKENS = st.sampled_from([f"{b:02x}" for b in range(256)] + [INVALID_TOKEN])
_BAD_TOKENS = st.one_of(
    st.sampled_from([f"{b:02X}" for b in range(256) if f"{b:02X}" != f"{b:02x}"]),  # uppercase hex
    st.text(alphabet="0123456789abcdef", min_size=1, max_size=1),
    st.text(alphabet="0123456789abcdef", min_size=3, max_size=3),
    st.sampled_from(["x", "X", "xX", "Xx", "XX", "xxx", "0x", "x0"]),
    st.sampled_from(["\u0660\u0661", "\uff10\uff11", "\u00b2\u00b3", "\U0001d7d8\U0001d7d9",
                     "6\u0660"]),  # non-ASCII digits
    st.sampled_from(["\t", "6\t", "\t0", "60\t"]),
)
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t"])
_EDGES = st.sampled_from(["", "", " ", "  "])


@st.composite
def _rendered_texts(draw):
    tokens = draw(st.lists(st.one_of(_VALID_TOKENS, _VALID_TOKENS, _BAD_TOKENS), max_size=8))
    text = tokens[0] if tokens else ""
    for tok in tokens[1:]:
        text += draw(_SEPARATORS) + tok
    return draw(_EDGES) + text + draw(_EDGES)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_VALID_TOKENS, max_size=8).map(" ".join), _rendered_texts()))
@example("60 XX 00")
@example("60 xx  00")
@example(" 60")
@example("60 ")
@example("6A")
@example("60\t00")
def test_parse_rendered_accepts_exactly_the_token_grammar(text):
    tokens, bad = _reference_parse(text)
    if bad is None:
        assert parse_cell(text) == tuple(tokens)
        assert render(tokens) == text
    else:
        with pytest.raises(ParseError) as exc:
            parse_cell(text)
        assert str(exc.value) == f"invalid opcode token {bad!r}"


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.lists(_VALID_TOKENS, min_size=1, max_size=6), min_size=1, max_size=5),
    where=st.data(),
    bad=_BAD_TOKENS,
)
def test_read_chunk_names_the_line_of_a_mutated_token(tmp_path_factory, rows, where, bad):
    row = where.draw(st.integers(0, len(rows) - 1))
    col = where.draw(st.integers(0, len(rows[row]) - 1))
    catalog = ClassCatalog(("A",))
    records = tuple(ContractRecord(f"0x{i:02x}", tuple(t), (False,)) for i, t in enumerate(rows))
    path = tmp_path_factory.mktemp("chunk") / "chunk.csv"
    write_chunk(Chunk(0, records), path, catalog)
    # a record cannot hold `bad`, so mutate the written file's text
    lines = path.read_bytes().decode().split("\r\n")
    address, cell, label = lines[row + 1].split(",")
    tokens = cell.split(" ")
    tokens[col] = bad
    lines[row + 1] = ",".join([address, " ".join(tokens), label])
    path.write_bytes("\r\n".join(lines).encode())
    with pytest.raises(ParseError) as exc:
        read_chunk(path, catalog)
    assert str(exc.value) == f"line {row + 2}: bytecode column: invalid opcode token {bad!r}"
