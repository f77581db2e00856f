"""EVM bytecode decoding and normalization.

Turns a hex-encoded contract into the canonical opcode token stream the
rest of the pipeline consumes:

    parse_hex -> opcodes (disassemble + normalize in one pass) -> render

Tokens are two lowercase hex digits ("60", "01", ...) with the special
token "xx" standing for byte values the instruction table does not assign;
these 257 are the cell tokens. The pipeline carries a contract's tokens as
`Opcodes`: one uint16 code per token, 0-255 for the token of that byte
value and 256 for "xx" (so a literal "61" and "xx" stay apart), read back
as a tuple of str only where a caller asks for one. `Opcodes.of` is the
one conversion from a sequence of cell tokens.

One 256-entry table, pinned to one EVM revision (Istanbul,
`data/opcodes.txt`) and not pluggable, gives every byte value its
instruction width and the code of its normalized token. Normalization
collapses the PUSH/DUP/SWAP/LOG families onto their first member, so the
normalized alphabet never contains 0x61-0x7f, 0x81-0x8f, 0x91-0x9f, or
0xa1-0xa4; unassigned byte values get the "xx" code.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import MalformedInputError, ParseError

# Sentinel token for byte values with no table entry, and its code.
INVALID_TOKEN = "xx"
INVALID_CODE = 256

# Bytes in the largest code the EVM accepts (EIP-3860 initcode). A byte
# normalizes to at most one token, so no contract has more tokens.
MAX_CODE_BYTES = 49_152

_HEX_DIGITS = set("0123456789abcdefABCDEF")
_HEX_BODY = re.compile("[0-9a-fA-F]*")

# The token of every code: the 256 two-digit lowercase byte tokens, then "xx".
TOKENS = tuple(f"{b:02x}" for b in range(256)) + (INVALID_TOKEN,)
_CODE_OF = {tok: code for code, tok in enumerate(TOKENS)}

# normalize()'s code-to-code map: each PUSH1..PUSH32, DUP1..DUP16, SWAP1..SWAP16 and
# LOG0..LOG4 member to its family's first member, every other code to itself.
_FAMILY_HEADS = np.arange(len(TOKENS), dtype=np.uint16)
for _first, _last in ((0x60, 0x7F), (0x80, 0x8F), (0x90, 0x9F), (0xA0, 0xA4)):
    _FAMILY_HEADS[_first : _last + 1] = _first
_FAMILY_HEADS.flags.writeable = False

# render() gathers one token-and-separator cell per code.
_CELLS = np.array([tok.encode() + b" " for tok in TOKENS], dtype="S3")
# A rendered cell, plus one trailing space, viewed as (token, separator) triples; the
# two token characters read as one little-endian uint16 index into _PAIR_CODES, whose
# entries are the token's code, or 0xFFFF for a pair that is no token.
_TRIPLE = np.dtype([("pair", "<u2"), ("sep", "u1")])
_PAIR_CODES = np.full(1 << 16, 0xFFFF, dtype=np.uint16)
_PAIR_CODES[[int.from_bytes(tok.encode(), "little") for tok in TOKENS]] = range(len(TOKENS))


class ByteTable(NamedTuple):
    widths: tuple[int, ...]  # bytes taken by the instruction at each byte value, 0 if unassigned
    entries: frozenset[int]  # the byte values opcodes.txt assigns
    codes: np.ndarray  # uint16 code of each byte value's normalized token, read-only
    operands: bytes  # bytes.translate table: 1 where the instruction has operand bytes, else 0


@functools.cache
def default_table() -> ByteTable:
    """The instruction table read once from the pinned opcodes.txt."""
    widths = [0] * 256
    text = resources.files("evmguard.data").joinpath("opcodes.txt").read_text()
    for line in text.splitlines():
        if line and not line.startswith("#"):
            byte, _mnemonic, operands = line.split()
            widths[int(byte, 16)] = 1 + int(operands)
    codes = _FAMILY_HEADS.take([b if w else INVALID_CODE for b, w in enumerate(widths)])
    codes.flags.writeable = False
    return ByteTable(
        tuple(widths),
        frozenset(b for b, w in enumerate(widths) if w),
        codes,
        bytes(w > 1 for w in widths),
    )


class Opcodes(Sequence[str]):
    """Tokens held as one uint16 code each (`TOKENS[code]` is the token).

    Reads as a tuple of str: indexing gives the token, slicing gives
    Opcodes, and it equals (and hashes like) the tuple of its tokens.
    Like a tuple it never equals a list.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    @staticmethod
    def of(tokens: Sequence[str]) -> Opcodes:
        """`tokens` as Opcodes: Opcodes unchanged, cell tokens as codes; MalformedInputError names the first other."""
        if isinstance(tokens, Opcodes):
            return tokens
        count = len(tokens)
        try:
            return Opcodes(np.fromiter(map(_CODE_OF.__getitem__, tokens), np.uint16, count))
        except (KeyError, TypeError):
            bad = next(tok for tok in tokens if not isinstance(tok, str) or tok not in _CODE_OF)
            raise MalformedInputError(f"invalid opcode token {bad!r}") from None

    def __len__(self) -> int:
        return self.codes.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Opcodes(self.codes[index])
        return TOKENS[self.codes[index]]

    def __iter__(self):
        return map(TOKENS.__getitem__, self.codes.tolist())

    def __eq__(self, other):
        if isinstance(other, Opcodes):
            return np.array_equal(self.codes, other.codes)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Opcodes({tuple(self)!r})"


def parse_hex(text: str) -> bytes:
    """Decode a hex string (optional "0x" prefix) into raw bytecode.

    Raises MalformedInputError naming the offending position for odd length
    or non-hex characters. "0x" alone decodes to the empty bytecode.
    """
    body = text.strip()
    if body[:2] in ("0x", "0X"):
        body = body[2:]
    try:
        raw = bytes.fromhex(body)
        if 2 * len(raw) == len(body):  # fromhex also skips whitespace between bytes
            return raw
    except ValueError:
        pass
    if not _HEX_BODY.fullmatch(body):
        pos, ch = next((pos, ch) for pos, ch in enumerate(body) if ch not in _HEX_DIGITS)
        raise MalformedInputError(f"invalid hex digit {ch!r} at position {pos}")
    raise MalformedInputError(
        f"odd number of hex digits ({len(body)}); bytecode must be whole bytes"
    )


def _instruction_bytes(raw: bytes, table: ByteTable) -> bytes:
    """The opcode byte of every instruction, PUSH operands dropped.

    Only bytes in the PUSH range can start an operand, so the loop visits
    those alone: one at or past the end of the last operand is a PUSH, and
    the bytes before it are one-byte instructions.
    """
    widths, parts, start = table.widths, [], 0
    for i in np.flatnonzero(np.frombuffer(raw.translate(table.operands), np.bool_)).tolist():
        if i >= start:
            parts.append(raw[start : i + 1])
            start = i + widths[raw[i]]
    parts.append(raw[start:])
    return b"".join(parts)


def disassemble(raw: bytes) -> Opcodes:
    """Linear-scan decode into opcode tokens, consuming PUSH operand bytes; not normalized.

    Unknown bytes become the "xx" sentinel; a PUSH whose operand runs past
    the end of code still emits its token. Never raises.
    """
    table = default_table()
    codes = np.frombuffer(_instruction_bytes(raw, table), np.uint8).astype(np.uint16)
    codes[table.codes.take(codes) == INVALID_CODE] = INVALID_CODE
    return Opcodes(codes)


def normalize(ops: Sequence[str]) -> Opcodes:
    """Collapse PUSH/DUP/SWAP/LOG family members onto the family head.

    All other tokens (including "xx") pass through; length is preserved.
    """
    return Opcodes(_FAMILY_HEADS.take(Opcodes.of(ops).codes))


def opcodes(hex_text: str) -> Opcodes:
    """parse_hex, then disassemble and normalize in one pass through the table, as codes."""
    table = default_table()
    raw = _instruction_bytes(parse_hex(hex_text), table)
    return Opcodes(table.codes.take(np.frombuffer(raw, np.uint8)))


def preprocess(hex_text: str) -> list[str]:
    """Full hex-to-normalized-tokens pipeline, as str tokens."""
    return list(opcodes(hex_text))


def render(tokens: Sequence[str]) -> str:
    """Serialize a token sequence as space-separated lowercase hex pairs."""
    return _CELLS.take(Opcodes.of(tokens).codes).tobytes()[:-1].decode("ascii")


def parse_cell(text: str) -> Opcodes:
    """Inverse of render(): tokens split by single spaces, each two lowercase hex digits or "xx".

    "" is no tokens; any other token, "" included, is a ParseError naming the first one.
    """
    data = text.encode(errors="replace") + b" "
    if len(data) % 3 == 0:
        triples = np.frombuffer(data, _TRIPLE)
        codes = _PAIR_CODES.take(triples["pair"])
        if (triples["sep"] == 32).all() and not (codes > INVALID_CODE).any():
            return Opcodes(codes)
    elif not text:
        return Opcodes(np.empty(0, dtype=np.uint16))
    bad = next(tok for tok in text.split(" ") if tok not in _CODE_OF)
    raise ParseError(f"invalid opcode token {bad!r}")
