"""EVM bytecode decoding and normalization.

Turns a hex-encoded contract into the canonical opcode token stream the
rest of the pipeline consumes:

    parse_hex -> disassemble -> normalize -> render

Tokens are two lowercase hex digits ("60", "01", ...) with the special
token "xx" standing for byte values the instruction table does not assign.
The table is pinned to one EVM revision (Istanbul, `data/opcodes.txt`) and
is not pluggable: every caller decodes against the same 256 widths.
Normalization collapses the PUSH/DUP/SWAP/LOG families onto their first
member, so the normalized alphabet never contains 0x61-0x7f, 0x81-0x8f,
0x91-0x9f, or 0xa1-0xa4.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from typing import NamedTuple, Sequence

from .errors import MalformedInputError, ParseError

# Sentinel token for byte values with no table entry.
INVALID_TOKEN = "xx"

# Family ranges collapsed by normalize(): (first_byte, last_byte) -> head byte.
_FAMILY_RANGES = (
    (0x60, 0x7F, 0x60),  # PUSH1..PUSH32
    (0x80, 0x8F, 0x80),  # DUP1..DUP16
    (0x90, 0x9F, 0x90),  # SWAP1..SWAP16
    (0xA0, 0xA4, 0xA0),  # LOG0..LOG4
)

_HEX_DIGITS = set("0123456789abcdefABCDEF")
_HEX_BODY = re.compile("[0-9a-fA-F]*")

_BYTE_TOKENS = tuple(f"{b:02x}" for b in range(256))
_RENDERED_TOKENS = frozenset(_BYTE_TOKENS) | {INVALID_TOKEN}


def _family_token(tok: str) -> str:
    byte = int(tok, 16)
    for lo, hi, head in _FAMILY_RANGES:
        if lo <= byte <= hi:
            return f"{head:02x}"
    return tok


# normalize()'s token map: every two-hex-digit token, in either case, to its family head.
_NORMALIZED = {a + b: _family_token(a + b) for a in _HEX_DIGITS for b in _HEX_DIGITS}


class ByteTable(NamedTuple):
    widths: tuple[int, ...]  # bytes taken by the instruction at each byte value, 0 if unassigned
    entries: frozenset[int]  # the byte values opcodes.txt assigns


@functools.cache
def default_table() -> ByteTable:
    """The instruction table read once from the pinned opcodes.txt."""
    widths = [0] * 256
    text = resources.files("evmguard.data").joinpath("opcodes.txt").read_text()
    for line in text.splitlines():
        if line and not line.startswith("#"):
            byte, _mnemonic, operands = line.split()
            widths[int(byte, 16)] = 1 + int(operands)
    return ByteTable(tuple(widths), frozenset(b for b, w in enumerate(widths) if w))


def parse_hex(text: str) -> bytes:
    """Decode a hex string (optional "0x" prefix) into raw bytecode.

    Raises MalformedInputError naming the offending position for odd length
    or non-hex characters. "0x" alone decodes to the empty bytecode.
    """
    body = text.strip()
    if body[:2] in ("0x", "0X"):
        body = body[2:]
    if not _HEX_BODY.fullmatch(body):
        pos, ch = next((pos, ch) for pos, ch in enumerate(body) if ch not in _HEX_DIGITS)
        raise MalformedInputError(f"invalid hex digit {ch!r} at position {pos}")
    if len(body) % 2 != 0:
        raise MalformedInputError(
            f"odd number of hex digits ({len(body)}); bytecode must be whole bytes"
        )
    return bytes.fromhex(body)


def disassemble(raw: bytes) -> list[str]:
    """Linear-scan decode into opcode tokens, consuming PUSH operand bytes.

    Unknown bytes become the "xx" sentinel; a PUSH whose operand runs past
    the end of code still emits its token. Never raises.
    """
    widths = default_table().widths
    tokens: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        byte = raw[i]
        width = widths[byte]
        if width:
            tokens.append(_BYTE_TOKENS[byte])
            i += width
        else:
            tokens.append(INVALID_TOKEN)
            i += 1
    return tokens


def normalize(ops: list[str]) -> list[str]:
    """Collapse PUSH/DUP/SWAP/LOG family members onto the family head.

    All other tokens (including "xx") pass through; length is preserved.
    """
    return [_NORMALIZED.get(tok, tok) for tok in ops]


def render(tokens: Sequence[str]) -> str:
    """Serialize a token sequence as space-separated lowercase hex pairs."""
    return " ".join(tokens)


def parse_rendered(text: str) -> list[str]:
    """Inverse of render(): tokens split by single spaces, each two lowercase hex digits or "xx".

    "" is no tokens; any other token, "" included, is a ParseError naming the first one.
    """
    if not text:
        return []
    tokens = text.split(" ")
    if not _RENDERED_TOKENS.issuperset(tokens):
        bad = next(tok for tok in tokens if tok not in _RENDERED_TOKENS)
        raise ParseError(f"invalid opcode token {bad!r}")
    return tokens


def preprocess(hex_text: str) -> list[str]:
    """Full hex-to-normalized-tokens pipeline used by corpus building and serving."""
    return normalize(disassemble(parse_hex(hex_text)))
