"""Multi-output recurrent classifier with hand-written backpropagation.

One shared stem (embedding, GRU, dropout on the final hidden state) feeds
independent dense branches, one per vulnerability class, each ending in a
single sigmoid neuron. Freezing is tracked per parameter block so new
branches can be trained while the stem and old branches stay bit-identical.

All parameters and activations are 32-bit floats unless a caller builds
the model with float64 blocks (the gradient tests do, for a quieter
finite-difference comparison); the math is dtype-agnostic.

GRU convention used everywhere here, with m = 0 where the token id at
step t is the padding id 0 and m = 1 elsewhere:

    z = sigmoid(x W_z + h U_z + b_z)
    r = sigmoid(x W_r + h U_r + b_r)
    c = tanh(x W_c + (r * h) U_c + b_c)
    h_new = z * h + (1 - z) * c
    h_next = m * h_new + (1 - m) * h

One bias per gate; the update gate multiplies the previous state.
sigmoid(x) is computed as 0.5 * (1 + tanh(x / 2)) everywhere.

The blocks are stored per gate, but the scan runs on fused operands built
once per call: the (vocab, 3h) table embedding [W_z|W_r|W_c] + [b_z|b_r|b_c],
kept as its z|r and c column blocks, and the recurrent kernel [U_z|U_r], so
a step makes two matmuls, h [U_z|U_r] and (r * h) U_c. A step's input
projection is its rows' entries of the two tables; the scan gathers them
for a block of steps at once, one gather per table, and a step writes its
gates, candidate and new state into buffers the caller reuses, so it
neither gathers nor allocates. `forward` and `Scanner` (the serving scan
that rows join and leave between steps) share one step and one
branch-head function, so the cell equations live in one place. The
scanner's whole schedule is each row's remaining ids: its blocks end no
later than its shortest row, so rows leave only at a block's end. The
backward pass runs only the recurrent matmuls dh needs inside its time
loop and stacks the gate deltas; every W, b and U gradient comes from
whole-sequence matmuls over that stack after the loop, and the embedding
gradient from one scatter-add of the input deltas by token id.

`forward` and `stem_states` run one scan function. A frozen stem's final
states, computed once by `stem_states`, can be given back to `forward`,
which then runs only dropout and the branches; `backward` on such a
heads-only cache trains branches only. Adam keeps its moments as one flat
vector each over the trained blocks and updates them whole.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, LoadError, MalformedInputError, UsageError, check_int, is_int
from .metrics import PROB_EPS, mean_bce
from .tokenizer import DEFAULT_MAX_SEQUENCE_LENGTH, SEQUENCE_LENGTH_CEILING, VOCAB_SIZE_CEILING

DEFAULT_GRU_HIDDEN = 64
DEFAULT_DENSE_WIDTHS = (128, 64, 1)
# The widest embedding, GRU state or dense layer: a (MAX_WIDTH, MAX_WIDTH) block is 64 MB.
MAX_WIDTH = 4096

_MAGIC = b"EVMG"
_VERSION = 1

_GATES = ("z", "r", "c")

_HALF = np.float32(0.5)
_ONE = np.float32(1.0)

# (row, step) pairs whose input projections a scan gathers at once: under
# 1 MB of float32 rows at hidden 64, whatever the batch size.
_BLOCK_ROW_STEPS = 1024


@dataclass(frozen=True)
class StemConfig:
    vocab_size: int
    embedding_dim: int
    gru_hidden: int = DEFAULT_GRU_HIDDEN
    dropout_rate: float = 0.2
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH

    def __post_init__(self):
        check_int("vocab_size", self.vocab_size, 2, VOCAB_SIZE_CEILING)
        check_int("embedding_dim", self.embedding_dim, 1, MAX_WIDTH)
        check_int("gru_hidden", self.gru_hidden, 1, MAX_WIDTH)
        check_int("max_sequence_length", self.max_sequence_length, 1, SEQUENCE_LENGTH_CEILING)
        if not (is_int(self.dropout_rate) or isinstance(self.dropout_rate, float)):
            raise ConfigError("dropout_rate must be an int or a float")  # what a header stores
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")


@dataclass(frozen=True)
class BranchConfig:
    class_name: str
    dense_widths: tuple[int, ...] = DEFAULT_DENSE_WIDTHS

    def __post_init__(self):
        if not isinstance(self.class_name, str):
            raise ConfigError("class_name must be a string")
        if not isinstance(self.dense_widths, tuple):
            raise ConfigError("dense_widths must be a tuple of ints")
        for w in self.dense_widths:
            check_int("dense widths", w, 1, MAX_WIDTH)
        if not self.dense_widths or self.dense_widths[-1] != 1:
            raise ConfigError("branch must end in a single-neuron head")


# Stem sized so its parameter count is exactly 16,000: with six default
# branches (6 * 16,641) the whole model lands on 115,846 parameters.
REFERENCE_STEM = StemConfig(vocab_size=28, embedding_dim=16, gru_hidden=64)


def stem_block_names() -> tuple[str, ...]:
    names = ["embedding"]
    for g in _GATES:
        names += [f"gru/w{g}", f"gru/u{g}", f"gru/b{g}"]
    return tuple(names)


def branch_block_names(class_name: str, n_layers: int) -> tuple[str, ...]:
    out = []
    for i in range(n_layers):
        out += [f"branch:{class_name}:w{i}", f"branch:{class_name}:b{i}"]
    return tuple(out)


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


@dataclass
class MolModel:
    stem: StemConfig
    branches: list[BranchConfig]
    params: dict[str, np.ndarray]
    frozen: set[str] = field(default_factory=set)
    vocab_fingerprint: str | None = None

    @property
    def class_names(self) -> list[str]:
        return [b.class_name for b in self.branches]

    def columns(self, names: list[str]) -> list[int]:
        """The output column of each named branch, in the order given."""
        own = self.class_names
        missing = [n for n in names if n not in own]
        if missing:
            raise ConfigError(f"unknown branches {missing!r}")
        return [own.index(n) for n in names]

    def blocks_of_branch(self, class_name: str) -> tuple[str, ...]:
        for b in self.branches:
            if b.class_name == class_name:
                return branch_block_names(class_name, len(b.dense_widths))
        raise ConfigError(f"no branch named {class_name!r}")

    def set_stem_frozen(self, flag: bool) -> None:
        for name in stem_block_names():
            self.frozen.add(name) if flag else self.frozen.discard(name)

    def set_branch_frozen(self, class_name: str, flag: bool) -> None:
        for name in self.blocks_of_branch(class_name):
            self.frozen.add(name) if flag else self.frozen.discard(name)

    def stem_frozen(self) -> bool:
        return all(name in self.frozen for name in stem_block_names())

    def trainable_blocks(self) -> list[str]:
        return [name for name in self.params if name not in self.frozen]


def _branch_shapes(config: BranchConfig, fan_in: int) -> dict[str, tuple]:
    shapes = {}
    for i, width in enumerate(config.dense_widths):
        shapes[f"branch:{config.class_name}:w{i}"] = (fan_in, width)
        shapes[f"branch:{config.class_name}:b{i}"] = (width,)
        fan_in = width
    return shapes


def _stem_shapes(stem: StemConfig) -> dict[str, tuple]:
    d, h = stem.embedding_dim, stem.gru_hidden
    shapes = {"embedding": (stem.vocab_size, d)}
    for g in _GATES:
        shapes.update({f"gru/w{g}": (d, h), f"gru/u{g}": (h, h), f"gru/b{g}": (h,)})
    return shapes


def _block_shapes(stem: StemConfig, branches: list[BranchConfig]) -> dict[str, tuple]:
    """Every parameter block's shape, in init_model's draw order."""
    names = {b.class_name for b in branches}
    if len(names) != len(branches):
        raise ConfigError("branch class names must be unique")
    if not branches:
        raise ConfigError("need at least one branch")
    shapes = _stem_shapes(stem)
    for b in branches:
        shapes.update(_branch_shapes(b, stem.gru_hidden))
    return shapes


def _draw(shapes: dict[str, tuple], seed: int, dtype) -> dict[str, np.ndarray]:
    """Fan-in uniform weights drawn in order from one generator; zero biases."""
    rng = np.random.default_rng(check_int("seed", seed, 0))
    params = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        # the embedding is a lookup table: a row's fan-in is its width
        fan_in = shape[1] if name == "embedding" else shape[0]
        params[name] = _uniform(rng, shape, fan_in, dtype)
    return params


def init_model(
    stem: StemConfig,
    branches: list[BranchConfig],
    seed: int,
    dtype=np.float32,
) -> MolModel:
    """Fan-in uniform weights, zero biases, deterministic per seed.

    Draw order is fixed: embedding, then GRU input/recurrent kernels gate
    by gate (z, r, c), then each branch layer by layer. Biases consume no
    randomness.
    """
    params = _draw(_block_shapes(stem, branches), seed, dtype)
    return MolModel(stem=stem, branches=list(branches), params=params)


def add_branch(model: MolModel, config: BranchConfig, seed: int) -> None:
    """Append a freshly initialized branch; every existing block is untouched."""
    if config.class_name in model.class_names:
        raise ConfigError(f"branch {config.class_name!r} already exists")
    shapes = _branch_shapes(config, model.stem.gru_hidden)
    model.params.update(_draw(shapes, seed, model.params["embedding"].dtype))
    model.branches.append(config)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)): no overflow, exactly 0.5 at 0."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def dropout_mask(shape, rate: float, seed: int, dtype) -> np.ndarray:
    """Inverted-dropout scale mask; a function of (seed, shape) alone."""
    rng = np.random.default_rng(check_int("seed", seed, 0))
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / dtype.type(1.0 - rate)


def _blas_width(w: np.ndarray) -> np.ndarray:
    """`w` with zero columns appended up to a multiple of 16 output columns.

    On the OpenBLAS build measured (0.3.31, Haswell kernels) the rows of
    x @ w do not depend on how many rows x has when w's width is a multiple
    of 16, and do for tails such as 2-7 or 17-23 columns, so the products
    whose rows must not depend on the batch are computed at a padded width
    and sliced back.
    """
    width = w.shape[-1]
    if not width % 16:
        return w
    out = np.zeros(w.shape[:-1] + (width - width % 16 + 16,), dtype=w.dtype)
    out[..., :width] = w
    return out


def _fused_kernels(p: dict[str, np.ndarray]):
    """Gate blocks concatenated in (z, r, c) order for one forward or backward call.

    Returns the input kernel [Wz|Wr|Wc] (d, 3h), the recurrent kernel
    [Uz|Ur] (h, 2h) and the scan operands for _gru_step: the per-token
    input projection embedding @ [Wz|Wr|Wc] + [bz|br|bc] as two contiguous
    tables, its z|r columns (vocab, 2h) and its c columns (vocab, h); [Uz|Ur];
    and Uc. The z|r table and [Uz|Ur] in the scan operands are halved, which
    is exact in binary floating point, so a step gets the x / 2 of
    sigmoid(x) = 0.5 * (1 + tanh(x / 2)) without a multiply; all four are
    padded to _blas_width.
    """
    w = np.concatenate([p["gru/wz"], p["gru/wr"], p["gru/wc"]], axis=1)
    b = np.concatenate([p["gru/bz"], p["gru/br"], p["gru/bc"]])
    u_zr = np.concatenate([p["gru/uz"], p["gru/ur"]], axis=1)
    table = p["embedding"] @ w + b
    h = u_zr.shape[0]
    scan = (table[:, : 2 * h] * _HALF, table[:, 2 * h :], u_zr * _HALF, p["gru/uc"])
    return w, u_zr, tuple(np.ascontiguousarray(_blas_width(a)) for a in scan)


@dataclass
class ForwardCache:
    model: MolModel
    ids: np.ndarray  # (batch, T) as given
    # The scan's state, None in a heads-only cache (forward given stem_states):
    steps: np.ndarray | None  # (t_used, batch) token id of each row at each scan step
    live: np.ndarray | None  # (t_used, batch, 1) bool: the step updates the row's state
    h_states: np.ndarray | None  # (t_used + 1, batch, hidden); [0] is the zero state
    zr: np.ndarray | None  # (t_used, batch, 2 * hidden) update|reset gates per step
    c: np.ndarray | None  # (t_used, batch, hidden) candidate state per step
    drop: np.ndarray | None  # inverted-dropout scale mask or None in eval
    h_final: np.ndarray  # post-dropout stem output (batch, hidden)
    branch_inputs: list[list[np.ndarray]]  # per branch, input to each layer
    branch_pre: list[list[np.ndarray]]  # per branch, pre-activation per layer
    probs: np.ndarray  # (batch, n_branches)


def _check_ids(model: MolModel, ids, ndim: int) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.ndim != ndim:
        raise MalformedInputError(f"ids must be {ndim}-d, got shape {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise MalformedInputError(f"token ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= model.stem.vocab_size):
        raise MalformedInputError(
            f"token ids must be in [0, {model.stem.vocab_size})"
        )
    return ids


def _check_call(model: MolModel, ids, mode: str) -> np.ndarray:
    if mode not in ("train", "eval"):
        raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
    return _check_ids(model, ids, 2)


def _step_buffers(rows: int, scan) -> tuple:
    """Buffers for _gru_step on `rows` rows, with the views it works through.

    (zr at the padded width, its first 2h columns, their z and r halves,
    r * h, c at the padded width, its first h columns); the padded arrays
    are what the matmuls write, as in x @ w[:, :n] sliced back.
    """
    x_zr_half, x_c, _, u_c = scan
    h = u_c.shape[0]
    zr_wide = np.empty((rows, x_zr_half.shape[1]), dtype=u_c.dtype)
    c_wide = np.empty((rows, x_c.shape[1]), dtype=u_c.dtype)
    zr = zr_wide[:, : 2 * h]
    rh = np.empty((rows, h), dtype=u_c.dtype)
    return zr_wide, zr, zr[:, :h], zr[:, h:], rh, c_wide, c_wide[:, :h]


def _gru_step(x_zr: np.ndarray, x_c: np.ndarray, h_t: np.ndarray, scan, bufs, h_new) -> tuple:
    """One GRU step for every row, written into `bufs` and `h_new`; returns (h_new, zr, c).

    `x_zr` and `x_c` are the rows' entries of the z|r and c input tables of
    `scan`, the operand tuple from _fused_kernels (z|r parts halved, all
    padded to _blas_width; the products are read back at 2h and h
    columns); `bufs` is from _step_buffers. Nothing is gathered or
    allocated. Every operation works row by row, so a row's result does
    not depend on the other rows.
    """
    _, _, u_zr_half, u_c = scan
    zr_wide, zr, z, r, rh, c_wide, c = bufs
    np.dot(h_t, u_zr_half, out=zr_wide)
    zr_wide += x_zr
    np.tanh(zr, out=zr)
    zr += _ONE
    zr *= _HALF
    np.multiply(r, h_t, out=rh)
    np.dot(rh, u_c, out=c_wide)
    c_wide += x_c
    np.tanh(c, out=c)
    np.subtract(h_t, c, out=h_new)  # z * h + (1 - z) * c as c + z * (h - c), one op fewer
    h_new *= z
    h_new += c
    return h_new, zr, c


def _stacked_heads(model: MolModel) -> list:
    """Branch weights for _branch_heads, stacked per layer across branches of equal widths.

    One entry per distinct `dense_widths`: (branch columns, layers), each
    layer (w, b) with w (G, in, out) padded to _blas_width and b (G, 1, out).
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, b in enumerate(model.branches):
        groups.setdefault(b.dense_widths, []).append(k)
    p = model.params
    heads = []
    for widths, cols in groups.items():
        names = [model.branches[k].class_name for k in cols]
        layers = []
        for i in range(len(widths)):
            w = _blas_width(np.stack([p[f"branch:{name}:w{i}"] for name in names]))
            b = np.stack([p[f"branch:{name}:b{i}"] for name in names])[:, None, :]
            layers.append((w, b))
        heads.append((cols, layers))
    return heads


def _branch_heads(stem_out: np.ndarray, heads: list):
    """Probabilities (rows, n_branches), with each branch's per-layer inputs and pre-activations.

    Branches of equal widths run as one stacked matmul per layer, at the
    padded width (a width-1 layer would otherwise run as gemv, whose rows
    round differently for different row counts).
    """
    n_branches = sum(len(cols) for cols, _ in heads)
    probs = np.empty((stem_out.shape[0], n_branches), dtype=stem_out.dtype)
    inputs: list[list[np.ndarray]] = [[] for _ in range(n_branches)]
    pre: list[list[np.ndarray]] = [[] for _ in range(n_branches)]
    for cols, layers in heads:
        a = stem_out
        for i, (w, b) in enumerate(layers):
            s = (a @ w)[..., : b.shape[-1]]
            s += b
            for g, k in enumerate(cols):
                inputs[k].append(a if a.ndim == 2 else a[g])
                pre[k].append(s[g])
            a = _sigmoid(s) if i == len(layers) - 1 else np.maximum(s, 0.0)
        probs[:, cols] = a[:, :, 0].T
    np.clip(probs, PROB_EPS, 1.0 - PROB_EPS, out=probs)
    return probs, inputs, pre


def _scan(model: MolModel, ids: np.ndarray, keep_cache: bool) -> tuple:
    """The GRU scan over checked ids: (final state, steps, live, h_states, zr, c).

    The final state (batch, hidden) is before dropout; the last three are
    None without `keep_cache`. The scan stops at the last nonzero id in the
    batch, and only the steps where some row holds the padding id blend by
    the mask.
    """
    batch = ids.shape[0]
    dtype = model.params["embedding"].dtype
    h = model.stem.gru_hidden
    used = np.flatnonzero((ids != 0).any(axis=0))
    t_used = int(used[-1]) + 1 if used.size else 0
    steps = ids[:, :t_used].T.astype(np.intp, order="C")
    live = (steps != 0)[:, :, None]
    blend = (steps == 0).any(axis=1).tolist()

    _, _, scan = _fused_kernels(model.params)
    bufs = _step_buffers(batch, scan)
    idle = ~live
    h_t, h_new = np.zeros((batch, h), dtype=dtype), np.empty((batch, h), dtype=dtype)
    h_states = zr_states = c_states = None
    if keep_cache:
        h_states = np.empty((t_used + 1, batch, h), dtype=dtype)
        h_states[0] = h_t
        zr_states = np.empty((t_used, batch, 2 * h), dtype=dtype)
        c_states = np.empty((t_used, batch, h), dtype=dtype)
    block = max(1, _BLOCK_ROW_STEPS // max(batch, 1))
    for start in range(0, t_used, block):
        ids_block = steps[start : start + block]
        rows = zip(scan[0][ids_block], scan[1][ids_block])
        for t, (x_zr, x_c) in enumerate(rows, start):
            _, zr, c = _gru_step(x_zr, x_c, h_t, scan, bufs, h_new)
            if blend[t]:
                np.copyto(h_new, h_t, where=idle[t])
            h_t, h_new = h_new, h_t
            if keep_cache:
                h_states[t + 1], zr_states[t], c_states[t] = h_t, zr, c
    return h_t, steps, live, h_states, zr_states, c_states


def stem_states(model: MolModel, ids: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Pre-dropout final GRU states (batch, hidden), as `forward(model, ids, mode)` scans them.

    Given back to `forward` with the same ids, mode and batch, they stand
    in for the scan bit-identically, so a trainer whose stem stays frozen
    scans each batch once. An eval-mode batch of one row is scanned as two
    copies, as `forward` runs it without a cache.
    """
    ids = _check_call(model, ids, mode)
    if ids.shape[0] == 1 and mode == "eval":
        return stem_states(model, np.repeat(ids, 2, axis=0))[:1]
    return _scan(model, ids, keep_cache=False)[0]


def forward(
    model: MolModel,
    ids: np.ndarray,
    mode: str = "eval",
    seed: int = 0,
    keep_cache: bool = False,
    stem_states: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, ForwardCache]:
    """Probabilities (batch, n_branches), optionally with backward state.

    The GRU scan stops at the last nonzero id in the batch. Id 0 never
    updates the hidden state wherever it sits, so padding is a no-op.
    Without `keep_cache` only the running (batch, hidden) state is kept.
    In eval mode without a cache a row's probabilities are bit-identical
    whatever the rest of the batch holds.

    `stem_states`, from `stem_states(model, ids, mode)`, replaces the scan:
    only dropout and the branches run, and a kept cache is heads-only,
    which `backward` accepts while the stem is frozen.
    """
    ids = _check_call(model, ids, mode)
    batch = ids.shape[0]
    dtype = model.params["embedding"].dtype
    h = model.stem.gru_hidden
    if stem_states is not None and not (
        isinstance(stem_states, np.ndarray) and stem_states.shape == (batch, h) and stem_states.dtype == dtype
    ):
        raise UsageError(f"stem_states must be a ({batch}, {h}) {dtype} array from stem_states()")
    if batch == 1 and mode == "eval" and not keep_cache:
        # BLAS runs a one-row operand as gemv, which rounds differently from
        # the same row inside a larger batch; two copies keep them equal.
        twice = None if stem_states is None else np.repeat(stem_states, 2, axis=0)
        return forward(model, np.repeat(ids, 2, axis=0), stem_states=twice)[:1]
    if stem_states is None:
        h_t, *scanned = _scan(model, ids, keep_cache)
    else:
        h_t, scanned = stem_states, [None] * 5

    drop = None
    h_final = h_t
    if mode == "train" and model.stem.dropout_rate > 0.0:
        drop = dropout_mask((batch, h), model.stem.dropout_rate, seed, dtype)
        h_final = h_t * drop

    probs, branch_inputs, branch_pre = _branch_heads(h_final, _stacked_heads(model))
    if not keep_cache:
        return probs
    cache = ForwardCache(
        model, ids, *scanned, drop, h_final, branch_inputs, branch_pre, probs
    )
    return probs, cache


class Scanner:
    """Eval-mode GRU scan that rows join and leave between steps.

    `admit(ids)` adds a row that starts from the zero state at the next
    step and runs exactly its own ids, up to its last nonzero one;
    `advance(stop)` runs the next block of steps for every row and returns
    (slot, probabilities) for the rows whose last id it consumed. A row's
    probabilities are bit-identical to `forward(model, ids[None])` whatever
    else is in flight: slot 0 is never admitted, so BLAS never gets a
    one-row operand, the products run at _blas_width, and every other
    operation works row by row.

    Between calls the scan holds only each slot's remaining ids, the
    states and the arrays it reuses. A call gathers the input-projection
    rows of its block into two arrays it keeps: at most _BLOCK_ROW_STEPS
    row-steps, and no more steps than the shortest row has left, so a row
    can only end where a block ends. It calls `stop()` after each step and
    ends the block early at the first true answer, so a row waiting to
    join gets in at the next step; then every row drops the ids it has
    run. Each step writes into buffers sized to the rows in flight and
    swaps its new state with the previous one, so a step allocates
    nothing. Slot 0 and free slots run id 1 and compute states nobody
    reads; only steps where some row holds an interior id 0 blend by the
    padding mask. Not thread-safe: one thread at a time may call it.
    """

    def __init__(self, model: MolModel):
        self.model = model
        _, _, self._scan = _fused_kernels(model.params)
        self._heads = _stacked_heads(model)
        self._h = np.zeros((1, model.stem.gru_hidden), dtype=self._scan[0].dtype)
        self._rows: list[np.ndarray | None] = [None]  # per row of _h, the ids it has left
        self._spare = self._bufs = None  # the step's outputs, sized to _h by advance
        self._gathered: tuple | None = None  # z|r and c rows of the blocks, reused

    def admit(self, ids: np.ndarray) -> int:
        """Queue a row for the next step; returns its slot."""
        ids = _check_ids(self.model, ids, 1)
        used = np.flatnonzero(ids)
        n = int(used[-1]) + 1 if used.size else 0
        span = self.model.stem.max_sequence_length
        if n > span:
            raise MalformedInputError(f"{n} ids run past max_sequence_length {span}")
        slot = next((s for s, row in enumerate(self._rows) if s and row is None), len(self._rows))
        if slot == len(self._rows):
            self._rows.append(None)
            self._h = np.concatenate([self._h, np.zeros_like(self._h[:1])])
        # a row with no ids still takes one step, masked, so its state stays zero
        self._rows[slot] = np.zeros(max(n, 1), dtype=np.intp)
        self._rows[slot][:n] = ids[:n]
        self._h[slot] = 0
        return slot

    def check_batch_invariance(self) -> None:
        """Raise ConfigError if a row of this scan's products depends on the row count.

        Runs one GRU step, the step `advance` runs, and the branch heads on
        3 rows and on their first 2 and compares those rows' bytes: gates,
        new state, every head pre-activation and the probabilities. The
        bit-identity above rests on this property of the BLAS build, which
        is measured, not given.
        """
        rows = np.linspace(-1.0, 1.0, 3 * self._h.shape[1], dtype=self._h.dtype).reshape(3, -1)
        ids = np.arange(1, 4) % self.model.stem.vocab_size

        def outputs(n: int) -> list[np.ndarray]:
            x_zr, x_c = self._scan[0][ids[:n]], self._scan[1][ids[:n]]
            bufs, h_new = _step_buffers(n, self._scan), np.empty_like(rows[:n])
            step = _gru_step(x_zr, x_c, rows[:n], self._scan, bufs, h_new)
            probs, _, pre = _branch_heads(rows[:n], self._heads)
            return [*step, probs, *(s for branch in pre for s in branch)]

        if any(a.tobytes() != b[:2].tobytes() for a, b in zip(outputs(2), outputs(3))):
            raise ConfigError(
                "this BLAS build rounds a row of the eval-path products differently "
                "for 2 and 3 rows, so a served row would depend on what else is in flight"
            )

    def advance(self, stop) -> list[tuple[int, np.ndarray]]:
        """Run the next block, or its steps up to the first where `stop()` is true.

        Returns the rows it finished.
        """
        rows = len(self._rows)
        if rows == 1:  # only slot 0: no row in flight
            return []
        left = min(row.size for row in self._rows if row is not None)
        n = max(1, min(_BLOCK_ROW_STEPS // rows, left))
        ids = np.ones((n, rows), dtype=np.intp)
        for slot, row in enumerate(self._rows):
            if row is not None:
                ids[:, slot] = row[:n]
        if self._spare is None or self._spare.shape[0] != rows:
            self._spare = np.empty_like(self._h)
            self._bufs = _step_buffers(rows, self._scan)
        if self._gathered is None or len(self._gathered[0]) < n * rows:
            size = max(_BLOCK_ROW_STEPS, n * rows)
            self._gathered = tuple(np.empty((size, t.shape[1]), t.dtype) for t in self._scan[:2])
        # gathered into the same two arrays every time: blocks allocated per
        # call would each take fresh pages in the stepping thread's arena
        x_zr, x_c = (buf[: n * rows].reshape(n, rows, -1) for buf in self._gathered)
        np.take(self._scan[0], ids, axis=0, out=x_zr, mode="clip")  # ids are checked at admit
        np.take(self._scan[1], ids, axis=0, out=x_c, mode="clip")
        blend = (ids == 0).any(axis=1).tolist()
        h, h_new = self._h, self._spare
        for k in range(n):
            _gru_step(x_zr[k], x_c[k], h, self._scan, self._bufs, h_new)
            if blend[k]:
                np.copyto(h_new, h, where=(ids[k] == 0)[:, None])
            h, h_new = h_new, h
            if stop():
                break
        self._h, self._spare = h, h_new
        self._rows = [row if row is None else row[k + 1 :] for row in self._rows]
        done = [slot for slot, row in enumerate(self._rows) if row is not None and not row.size]
        if not done:
            return []
        probs, _, _ = _branch_heads(self._h[[0, *done]], self._heads)
        for slot in done:
            self._rows[slot] = None
        while len(self._rows) > 1 and self._rows[-1] is None:
            self._rows.pop()
        self._h = self._h[: len(self._rows)]
        return list(zip(done, probs[1:]))


def bce_loss(labels: np.ndarray, probs: np.ndarray) -> float:
    """Mean of -(y log p + (1-y) log(1-p)) over every (sample, branch) cell."""
    y, p = np.shape(labels), np.shape(probs)
    if y != p:
        raise ConfigError(f"labels shape {y} != probabilities shape {p}")
    return mean_bce(labels, probs)


def backward(
    model: MolModel,
    cache: ForwardCache,
    labels: np.ndarray,
    branch_subset: list[str] | None = None,
) -> dict[str, np.ndarray]:
    """Analytic gradients of mean BCE for every unfrozen parameter block.

    `branch_subset` restricts the loss to those output columns (in the
    given order); `labels` must then have one column per selected branch.
    When the whole stem is frozen the time scan is skipped outright, which
    is what makes branch-only transfer training cheap; only then may the
    cache be heads-only (forward given `stem_states`).
    """
    if cache.model is not model:
        raise UsageError("backward called with a cache from a different model")
    if cache.h_states is None and not model.stem_frozen():
        raise UsageError("a cache from forward on stem_states cannot train the stem")
    selected = model.columns(model.class_names if branch_subset is None else branch_subset)
    y = np.asarray(labels)
    batch = cache.ids.shape[0]
    if y.shape != (batch, len(selected)):
        raise ConfigError(
            f"labels shape {y.shape} != expected {(batch, len(selected))}"
        )

    p = model.params
    dtype = p["embedding"].dtype
    y = y.astype(dtype)
    grads: dict[str, np.ndarray] = {}
    cells = batch * len(selected)
    dh_final = np.zeros_like(cache.h_final)

    for col, k in enumerate(selected):
        b = model.branches[k]
        probs_k = cache.probs[:, k]
        ds = ((probs_k - y[:, col]) / cells)[:, None]
        n = len(b.dense_widths)
        for i in reversed(range(n)):
            if i != n - 1:
                ds = ds * (cache.branch_pre[k][i] > 0)
            w_name = f"branch:{b.class_name}:w{i}"
            b_name = f"branch:{b.class_name}:b{i}"
            if w_name not in model.frozen:
                grads[w_name] = cache.branch_inputs[k][i].T @ ds
            if b_name not in model.frozen:
                grads[b_name] = ds.sum(axis=0)
            ds = ds @ p[w_name].T
        dh_final += ds

    if model.stem_frozen():
        return grads

    dh = dh_final if cache.drop is None else dh_final * cache.drop
    h = model.stem.gru_hidden
    w, u_zr, _ = _fused_kernels(p)
    u_zr_t = np.ascontiguousarray(u_zr.T)
    u_c_t = np.ascontiguousarray(p["gru/uc"].T)
    # gate pre-activation deltas [dz|dr|dc] per step; the loop runs only the
    # two recurrent matmuls dh_prev needs
    delta = np.empty((cache.steps.shape[0], batch, 3 * h), dtype=dtype)
    for t in reversed(range(delta.shape[0])):
        h_prev, c = cache.h_states[t], cache.c[t]
        z, r = cache.zr[t, :, :h], cache.zr[t, :, h:]
        # a step that leaves its row unchanged passes dh straight through
        # (carry 1), and gate = 0 then zeroes the row's deltas
        carry = np.where(cache.live[t], z, 1.0)
        gate = 1.0 - carry
        d = delta[t]
        np.multiply(dh * gate, 1.0 - c * c, out=d[:, 2 * h :])
        drh_r = (d[:, 2 * h :] @ u_c_t) * r
        dh_carry = dh * carry
        np.multiply(dh_carry * gate, h_prev - c, out=d[:, :h])
        np.multiply(drh_r * (1.0 - r), h_prev, out=d[:, h : 2 * h])
        dh = dh_carry + drh_r + d[:, : 2 * h] @ u_zr_t

    flat = delta.reshape(-1, 3 * h)
    h_prev = cache.h_states[:-1].reshape(-1, h)
    r = cache.zr[:, :, h:].reshape(-1, h)
    # A step's input projection is embedding[id] [Wz|Wr|Wc] + [bz|br|bc], so
    # the input-side gradients are matmuls over the gathered embeddings, and
    # each step's input delta is summed into its token id's embedding row.
    ids = cache.steps.reshape(-1)
    w_grad = p["embedding"][ids].T @ flat
    b_grad = flat.sum(axis=0)
    dx = flat @ w.T
    vocab, width = p["embedding"].shape
    bins = (ids[:, None] * width + np.arange(width)).reshape(-1)  # (id, column) pairs, row-major
    emb_grad = np.bincount(bins, dx.reshape(-1), minlength=vocab * width)
    emb_grad = emb_grad.reshape(vocab, width).astype(dtype)
    u_zr_grad = h_prev.T @ flat[:, : 2 * h]
    stem_grads = {"embedding": emb_grad, "gru/uc": (r * h_prev).T @ flat[:, 2 * h :]}
    for i, g in enumerate(_GATES):
        cols = slice(i * h, (i + 1) * h)
        stem_grads[f"gru/w{g}"] = w_grad[:, cols]
        stem_grads[f"gru/b{g}"] = b_grad[cols]
        if g != "c":
            stem_grads[f"gru/u{g}"] = u_zr_grad[:, cols]
    for name, val in stem_grads.items():
        if name not in model.frozen:
            grads[name] = val
    return grads


@dataclass
class AdamState:
    """Adam's moments as one flat vector each, over the trained blocks in `names` order.

    The first `adam_step` fixes `names` and allocates `m`, `v` and `work`
    (the gathered gradient and the update, reused every step).
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    names: tuple[str, ...] = ()
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    work: np.ndarray | None = field(default=None, repr=False)  # (2, size)


def adam_step(
    model: MolModel,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 0.001,
) -> None:
    """Standard bias-corrected Adam over the supplied unfrozen blocks.

    Gradients of frozen blocks are ignored. Every step must supply the
    blocks the first one did, each in its block's shape, or it raises
    UsageError and changes nothing. A step gathers the gradients into one
    vector and updates it whole, in place, with the elementwise operations
    of a per-block update in the same order, so bit-identically; then it
    subtracts each block's slice of the update from the block.
    """
    names = [name for name in grads if name not in model.frozen]
    held = names if state.m is None else state.names
    if set(names) != set(held) or any(
        name not in model.params or np.shape(grads[name]) != model.params[name].shape
        for name in names
    ):
        raise UsageError(
            f"gradients must cover exactly the trained blocks {sorted(held)}, in their shapes"
        )
    if state.m is None:
        size = sum(model.params[name].size for name in names)
        dtype = model.params["embedding"].dtype
        state.names, state.m, state.v = tuple(names), np.zeros(size, dtype), np.zeros(size, dtype)
        state.work = np.empty((2, size), dtype)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    m, v, (g, upd) = state.m, state.v, state.work
    blocks = []
    lo = 0
    for name in state.names:
        param = model.params[name]
        span = slice(lo, lo + param.size)
        np.copyto(g[span].reshape(param.shape), grads[name])
        blocks.append((param, span))
        lo = span.stop
    # per block: m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    # param -= lr m_hat / (sqrt(v_hat) + eps), each product in this order
    m *= b1
    np.multiply(g, 1.0 - b1, out=upd)
    m += upd
    v *= b2
    np.multiply(g, 1.0 - b2, out=upd)
    upd *= g
    v += upd
    np.divide(m, 1.0 - b1**t, out=upd)  # m_hat
    den = np.divide(v, 1.0 - b2**t, out=g)  # v_hat, over the spent gradient
    np.sqrt(den, out=den)
    den += state.eps
    upd *= lr
    upd /= den
    for param, span in blocks:
        param -= upd[span].reshape(param.shape)


def stem_param_count(config: StemConfig) -> int:
    return sum(math.prod(s) for s in _stem_shapes(config).values())


def branch_param_count(config: BranchConfig, input_width: int = DEFAULT_GRU_HIDDEN) -> int:
    return sum(math.prod(s) for s in _branch_shapes(config, input_width).values())


def param_count(model: MolModel, scope: str = "all"):
    """Exact parameter counts: 'all' or 'trainable' (ints), 'per-branch' (dict)."""
    if scope == "all":
        return sum(arr.size for arr in model.params.values())
    if scope == "trainable":
        return sum(
            arr.size for name, arr in model.params.items() if name not in model.frozen
        )
    if scope == "per-branch":
        return {
            b.class_name: sum(
                model.params[n].size
                for n in branch_block_names(b.class_name, len(b.dense_widths))
            )
            for b in model.branches
        }
    raise UsageError(f"unknown scope {scope!r}")


def save_model(model: MolModel, path) -> None:
    """Versioned container: magic, version, JSON header, raw little-endian blocks."""
    block_names = list(model.params)
    header = {
        "stem": asdict(model.stem),
        "branches": [asdict(b) for b in model.branches],
        "frozen": sorted(model.frozen),
        "vocab_fingerprint": model.vocab_fingerprint,
        "blocks": [
            {"name": name, "shape": list(model.params[name].shape)}
            for name in block_names
        ],
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<Q", len(payload)))
        f.write(payload)
        for name in block_names:
            f.write(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes())


def _header_configs(header) -> tuple[StemConfig, list[BranchConfig]]:
    """Configs a header declares: LoadError on wrong keys or shapes, ConfigError on bad values.

    The configs check their own values' types.
    """
    try:
        stem, branches, frozen = header["stem"], header["branches"], header["frozen"]
        well_formed = (
            set(header) == {"stem", "branches", "frozen", "vocab_fingerprint", "blocks"}
            and type(stem) is dict
            and set(stem) == {f.name for f in fields(StemConfig)}
            and type(branches) is list
            and all(
                type(b) is dict
                and set(b) == {"class_name", "dense_widths"}
                and type(b["dense_widths"]) is list
                for b in branches
            )
            and type(frozen) is list
            and all(type(name) is str for name in frozen)
            and type(header["vocab_fingerprint"]) in (str, type(None))
        )
    except (KeyError, TypeError):
        well_formed = False
    if not well_formed:
        raise LoadError("malformed model header")
    return StemConfig(**stem), [
        BranchConfig(b["class_name"], tuple(b["dense_widths"])) for b in branches
    ]


def load_model(path) -> MolModel:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise LoadError("not a model file (bad magic)")
    if len(blob) < 16:
        raise LoadError("truncated model file while reading version and header length")
    version, header_len = struct.unpack_from("<IQ", blob, 4)
    if version != _VERSION:
        raise LoadError(f"model file version {version}, this build reads {_VERSION}")
    off = 16 + header_len
    if off > len(blob):
        raise LoadError("truncated model file while reading header")
    try:
        header = json.loads(blob[16:off].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LoadError(f"corrupt model header: {exc}") from None

    try:
        stem, branches = _header_configs(header)
        shapes = _block_shapes(stem, branches)
    except ConfigError as exc:
        raise LoadError(f"bad model header: {exc}") from None
    if header["blocks"] != [{"name": n, "shape": list(s)} for n, s in shapes.items()]:
        raise LoadError("model blocks do not match the stem and branches it declares")
    if not set(header["frozen"]) <= shapes.keys():
        raise LoadError("model header freezes a block it does not have")
    n_floats = sum(math.prod(s) for s in shapes.values())
    spare = len(blob) - off - 4 * n_floats
    if spare < 0:
        raise LoadError("truncated model file while reading blocks")
    if spare > 0:
        raise LoadError(f"{spare} trailing bytes after last block")
    floats = np.frombuffer(blob, dtype="<f4", count=n_floats, offset=off)
    params = {}
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name], floats = floats[:size].reshape(shape).copy(), floats[size:]
    return MolModel(
        stem=stem,
        branches=branches,
        params=params,
        frozen=set(header["frozen"]),
        vocab_fingerprint=header["vocab_fingerprint"],
    )
