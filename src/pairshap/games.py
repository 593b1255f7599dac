"""Value functions on binary coalition vectors.

A game is declared in JSON as a sum of terms, each reading a subset of the q
players through a linear or bilinear form, optionally wrapped in an
exponential.  Evaluation always subtracts the raw value of the empty
coalition, so every game is normalized to worth exactly zero at the empty
set.  Player indices are 1-based in documents and 0-based everywhere in code.
Elsewhere a coalition is an int64 bitmask, and the game is reached only
through `GameEvaluator.values_at`, which turns masks into indicator rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NonFiniteError, SchemaError, SizeGuard

TERM_KINDS = ("linear", "bilinear", "exp_linear", "exp_bilinear")

# Coalition bitmasks are int64 with bit j standing for player j; bits 0..62
# stay clear of the sign bit, so no game may have more players.
MASK_LIMIT = 63

# A batch of n sampled draws is an n x q array (orders, or membership keys
# and ranks), and walks and fits keep a few float arrays of that shape, so
# every sampler refuses more than DRAW_LIMIT = n * q entries up front.
DRAW_LIMIT = 2**24

_TERM_KEYS = {
    "linear": {"kind", "indices", "beta", "offset"},
    "exp_linear": {"kind", "indices", "beta", "offset"},
    "bilinear": {"kind", "indices", "A", "offset"},
    "exp_bilinear": {"kind", "indices", "A", "offset"},
}


@dataclass(frozen=True)
class Term:
    """One additive component of a value function.

    `indices` holds 0-based player positions.  `coeffs` is a vector (linear
    kinds) or a square matrix (bilinear kinds) acting on the selected
    sub-vector of the coalition indicator.
    """

    kind: str
    indices: np.ndarray
    coeffs: np.ndarray
    offset: float = 0.0

    def raw_values(self, Z: np.ndarray) -> np.ndarray:
        zsub = Z[:, self.indices].astype(float)
        if self.kind == "linear":
            core = zsub @ self.coeffs
        elif self.kind == "bilinear":
            core = np.einsum("ni,ij,nj->n", zsub, self.coeffs, zsub)
        elif self.kind == "exp_linear":
            with np.errstate(over="ignore"):
                core = np.exp(zsub @ self.coeffs)
        else:
            with np.errstate(over="ignore"):
                core = np.exp(np.einsum("ni,ij,nj->n", zsub, self.coeffs, zsub))
        return core + self.offset


@dataclass(frozen=True)
class ValueFunctionSpec:
    """A declared game: player count plus a tuple of terms.

    `values` returns normalized payoffs; the raw payoff of the empty
    coalition is cached at construction and subtracted on every call, so the
    empty coalition is worth 0.0 exactly.
    """

    q: int
    terms: tuple[Term, ...]
    _raw_empty: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        empty = np.zeros((1, self.q), dtype=np.uint8)
        raw = sum(t.raw_values(empty)[0] for t in self.terms)
        object.__setattr__(self, "_raw_empty", float(raw))

    def values(self, Z: np.ndarray) -> np.ndarray:
        Z = as_coalitions(Z, self.q)
        total = np.zeros(Z.shape[0])
        for term in self.terms:
            total += term.raw_values(Z)
        total -= self._raw_empty
        if not np.all(np.isfinite(total)):
            raise NonFiniteError("value function produced a non-finite payoff")
        return total


def as_coalitions(Z, q: int) -> np.ndarray:
    """Validate and return an (m, q) binary matrix of coalition indicators."""
    Z = np.asarray(Z)
    if Z.ndim != 2 or Z.shape[1] != q:
        raise DimensionError(f"expected an (m, {q}) coalition matrix, got shape {Z.shape}")
    if Z.dtype == np.uint8:
        # unsigned bytes are all 0 or 1 exactly when none exceeds 1
        valid = Z.size == 0 or Z.max() <= 1
    else:
        valid = np.isin(Z, (0, 1)).all()
    if not valid:
        raise DomainError("coalition entries must be 0 or 1")
    return Z


def prefix_masks(perms) -> np.ndarray:
    """Bitmasks of the q nonempty prefixes of each order, as an (n, q) int64 array."""
    perms = np.asarray(perms)
    _guard_masks(perms.shape[1])
    masks = np.int64(1) << perms
    np.cumsum(masks, axis=1, out=masks)
    return masks


def mask_rows(masks, q: int) -> np.ndarray:
    """Indicator rows of a 1-D array of coalition bitmasks, as an (m, q) uint8 matrix.

    The bits are unpacked straight from the masks' little-endian bytes, so
    no wider temporary than the masks themselves is made.
    """
    data = np.ascontiguousarray(masks, dtype="<i8")
    return np.unpackbits(data.view(np.uint8).reshape(-1, 8), axis=1, count=q, bitorder="little")


def member_masks(members) -> np.ndarray:
    """Bitmasks of the rows of an (..., q) boolean membership array; the inverse of `mask_rows`."""
    q = np.shape(members)[-1]
    _guard_masks(q)
    return members @ (np.int64(1) << np.arange(q, dtype=np.int64))


def full_mask(q: int) -> np.int64:
    """Bitmask of the grand coalition of q players, 2^q - 1."""
    _guard_masks(q)
    return np.int64((1 << q) - 1)


def guard_draws(n: int, q: int) -> None:
    """SizeGuard when n draws of q players exceed DRAW_LIMIT entries."""
    if n * q > DRAW_LIMIT:
        raise SizeGuard(f"sampled draws support n * q <= {DRAW_LIMIT}, got n = {n} at q = {q}")


def _guard_masks(q: int) -> None:
    if q > MASK_LIMIT:
        raise SizeGuard(f"coalition bitmasks support q <= {MASK_LIMIT}, got q = {q}")


def parse_spec(doc) -> ValueFunctionSpec:
    """Build a ValueFunctionSpec from a JSON string or an already-parsed dict.

    Raises SchemaError for structural problems, DimensionError when
    coefficient shapes disagree with the index list, DomainError for
    out-of-range values (q < 2, indices outside 1..q, duplicates, non-finite
    numbers), and SizeGuard for more players than a coalition bitmask holds.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    extra = set(doc) - {"q", "terms"}
    if extra:
        raise SchemaError(f"unknown top-level keys: {sorted(extra)}")
    if "q" not in doc or "terms" not in doc:
        raise SchemaError("document requires 'q' and 'terms'")
    q = doc["q"]
    if not isinstance(q, int) or isinstance(q, bool):
        raise SchemaError("'q' must be an integer")
    if q < 2:
        raise DomainError(f"q must be at least 2, got {q}")
    _guard_masks(q)
    if not isinstance(doc["terms"], list) or not doc["terms"]:
        raise SchemaError("'terms' must be a non-empty list")
    return ValueFunctionSpec(q=q, terms=tuple(_parse_term(t, q, i) for i, t in enumerate(doc["terms"])))


def _parse_term(raw, q: int, pos: int) -> Term:
    where = f"terms[{pos}]"
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be an object")
    kind = raw.get("kind")
    if kind not in TERM_KINDS:
        raise SchemaError(f"{where}: kind must be one of {TERM_KINDS}, got {kind!r}")
    extra = set(raw) - _TERM_KEYS[kind]
    if extra:
        raise SchemaError(f"{where}: unknown keys for kind {kind!r}: {sorted(extra)}")

    indices = raw.get("indices")
    if not isinstance(indices, list) or not indices:
        raise SchemaError(f"{where}: 'indices' must be a non-empty list")
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
        raise SchemaError(f"{where}: indices must be integers")
    if any(i < 1 or i > q for i in indices):
        raise DomainError(f"{where}: indices must lie in 1..{q}")
    if len(set(indices)) != len(indices):
        raise DomainError(f"{where}: duplicate indices")
    k = len(indices)

    if kind in ("linear", "exp_linear"):
        beta = raw.get("beta")
        if beta is None:
            raise SchemaError(f"{where}: kind {kind!r} requires 'beta'")
        coeffs = _as_float_array(beta, where, "beta")
        if coeffs.shape != (k,):
            raise DimensionError(f"{where}: beta must have length {k}, got shape {coeffs.shape}")
    else:
        A = raw.get("A")
        if A is None:
            raise SchemaError(f"{where}: kind {kind!r} requires 'A'")
        coeffs = _as_float_array(A, where, "A")
        if coeffs.shape != (k, k):
            raise DimensionError(f"{where}: A must be {k}x{k}, got shape {coeffs.shape}")

    offset = _as_float_array(raw.get("offset", 0.0), where, "offset")
    if offset.ndim:
        raise SchemaError(f"{where}: 'offset' must be a number")

    return Term(
        kind=kind,
        indices=np.asarray(indices, dtype=np.int64) - 1,
        coeffs=coeffs,
        offset=float(offset),
    )


def _as_float_array(values, where: str, name: str) -> np.ndarray:
    # a ragged list leaves lists among the entries; JSON booleans are not numbers
    entries = np.asarray(values, dtype=object)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entries.flat):
        raise SchemaError(f"{where}: '{name}' must be a number or a rectangular list of numbers")
    try:
        arr = entries.astype(float)
    except OverflowError as exc:
        raise DomainError(f"{where}: '{name}' contains non-finite entries") from exc
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{where}: '{name}' contains non-finite entries")
    return arr


class GameEvaluator:
    """Wraps a game and counts every value-function evaluation.

    Any object with an integer attribute `q` and a method `values(Z)` mapping
    an (m, q) binary matrix to m normalized payoffs can be wrapped;
    ValueFunctionSpec is the standard one.  The grand-coalition value is
    cached after its first (counted) evaluation because several estimators
    reuse it on every draw.

    `eval_count` is the paper's logical cost: 1 per kernel draw, 2 per paired
    kernel draw, q per walked order and 2q per paired order.  The game may
    see far fewer rows: a lookup whose masks outnumber the 2^q coalitions
    evaluates each distinct coalition once.
    """

    def __init__(self, game):
        self.game = game
        self.q = int(game.q)
        self.eval_count = 0
        self._grand: float | None = None

    def values_at(self, masks, out=None) -> np.ndarray:
        """Payoffs of the coalitions encoded by an (n, k) int64 bitmask array.

        Counts one logical evaluation per mask.  When the masks outnumber
        the 2^q coalitions, the distinct ones are tabulated, n/2 at a time,
        and gathered by one `take`; otherwise each column is evaluated as n
        indicator rows.  Either way the game sees at most n rows per call,
        and only coalitions that appear in `masks` reach it.  `out`, a float
        (n, k) array, may share memory with `masks`: each mask is read
        before its payoff overwrites it.
        """
        q = self.q
        _guard_masks(q)
        masks = np.asarray(masks, dtype=np.int64)
        if masks.ndim != 2:
            raise DimensionError(f"expected an (n, k) bitmask array, got shape {masks.shape}")
        if masks.size and (masks.min() < 0 or masks.max() >> q):
            raise DomainError(f"coalition bitmasks must lie in [0, 2^{q})")
        if out is None:
            out = np.empty(masks.shape)
        size = 1 << q
        if size <= masks.size:
            seen = np.zeros(size, dtype=bool)
            seen[masks] = True
            table = np.zeros(size)
            # the table is at most one n x k array, so half as many rows per
            # call keeps the peak at that of the row path
            step = max(masks.shape[0] // 2, 1)
            for start in range(0, size, step):
                distinct = np.flatnonzero(seen[start:start + step])
                if distinct.size:
                    distinct += start
                    table[distinct] = self.game.values(mask_rows(distinct, q))
            del seen
            # the masks were range-checked above, so clipping never bites;
            # unlike the default mode it writes into `out` without a buffer
            np.take(table, masks, out=out, mode="clip")
        else:
            for col in range(masks.shape[1]):
                out[:, col] = self.game.values(mask_rows(masks[:, col], q))
        self.eval_count += masks.size
        return out

    def grand_value(self) -> float:
        if self._grand is None:
            self._grand = float(self.values_at([[full_mask(self.q)]])[0, 0])
        return self._grand
