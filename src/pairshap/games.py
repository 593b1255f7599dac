"""Value functions on binary coalition vectors.

A game is declared in JSON as a sum of terms, each reading a subset of the q
players through a linear or bilinear form, optionally wrapped in an
exponential.  Evaluation always subtracts the raw value of the empty
coalition, so every game is normalized to worth exactly zero at the empty
set.  Player indices are 1-based in documents and 0-based everywhere in code.
Elsewhere a coalition is an int64 bitmask, and the game is reached only
through `GameEvaluator`: `value_table` tabulates every coalition, and
`values_at` reads that table or, for fewer masks, their indicator rows.
"""
from __future__ import annotations

import json
from contextlib import suppress
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

# A value table holds one float per coalition: 2^25 of them take 256 MB.
# Whatever is tabulated from indicator rows (a game known only by its
# `values`, or a bilinear term over its own players) is evaluated in mask
# order, at most CHUNK_ROWS coalitions at a time, so those temporaries stay
# the size of one chunk whatever the player count is.
TABLE_LIMIT = 25
CHUNK_ROWS = 2**15
LINEAR_KINDS = ("linear", "exp_linear")


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
        """Raw payoffs of the rows of a coalition matrix.

        A linear form adds beta[k] z[indices[k]] to zero for k = 0, 1, ...,
        the additions `table` makes, so a row's payoff has the same bits
        whatever batch it comes in.
        """
        # sums of finite coefficients, and their exponentials, can overflow;
        # the game refuses non-finite payoffs with NonFiniteError
        with np.errstate(over="ignore"):
            if self.kind in LINEAR_KINDS:
                core = np.zeros(Z.shape[0])
                for j, b in zip(self.indices, self.coeffs):
                    core += Z[:, j] * b
            else:
                core = _quadratic_form(Z[:, self.indices].astype(float), self.coeffs)
            if self.kind.startswith("exp"):
                np.exp(core, out=core)
        return core + self.offset

    def table(self) -> np.ndarray:
        """Raw payoff of every coalition of the term's own players.

        Indexed by the term's own bitmask, bit k standing for player
        indices[k]: 2^k payoffs for k players.  A linear form is
        `subset_sums` of beta: each payoff is the sum `raw_values` forms,
        added in the same order.  A bilinear term is `raw_values` of the 2^k
        indicator rows of its own players, the columns it reads in wider rows.
        """
        k = self.indices.size
        if self.kind not in LINEAR_KINDS:
            return _tabulate_rows(Term(self.kind, np.arange(k), self.coeffs, self.offset).raw_values, k)
        with np.errstate(over="ignore"):
            local = subset_sums(self.coeffs)
            if self.kind == "exp_linear":
                np.exp(local, out=local)
        local += self.offset
        return local


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
        # terms of opposite infinite sign add to NaN; `_normalized` refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            for term in self.terms:
                total += term.raw_values(Z)
        return self._normalized(total)

    def value_table(self) -> np.ndarray:
        """Payoff of every coalition, indexed by bitmask: `values` of all 2^q, to the bit.

        The terms are added in order, as `values` adds them.  Each term is
        tabulated over its own players by `Term.table` and spread to the 2^q
        masks, in mask-order chunks unless it reads every player in order.
        No 2^q index array is formed.  SizeGuard for q > TABLE_LIMIT, before
        anything is allocated.
        """
        q = self.q
        _guard_table(q)
        step, starts = _table_chunks(q)
        total = None
        # terms of opposite infinite sign add to NaN; `_normalized` refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            for term in self.terms:
                local = term.table()
                # `values` adds the first term to zeros, which turns -0.0 into
                # 0.0; only a bilinear form, summed by einsum, is not built from zero
                if np.array_equal(term.indices, np.arange(q)) and (total is not None or term.kind != "bilinear"):
                    total = local if total is None else np.add(total, local, out=total)
                    continue
                if total is None:
                    total = np.zeros(1 << q)
                # a chunk's masks are its start plus the masks below step, whose
                # bits are disjoint, and so are their term bitmasks
                lows = _term_masks(term.indices, np.arange(step, dtype=np.int64))
                for start in starts:
                    total[start : start + step] += local[lows + _term_masks(term.indices, np.int64(start))]
        return self._normalized(total)

    def _normalized(self, total: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            total -= self._raw_empty
        if not np.all(np.isfinite(total)):
            raise NonFiniteError("value function produced a non-finite payoff")
        return total


def _quadratic_form(zsub: np.ndarray, A: np.ndarray) -> np.ndarray:
    """z^T A z for every row z of zsub."""
    if A.shape == (2, 2):
        # einsum rounds a two-player form differently in a one-row batch;
        # these are its four terms, added in the order it adds them in
        # larger batches
        core = np.zeros(zsub.shape[0])
        for i in range(2):
            for j in range(2):
                core += zsub[:, i] * A[i, j] * zsub[:, j]
        return core
    return np.einsum("ni,ij,nj->n", zsub, A, zsub)


def subset_sums(c) -> np.ndarray:
    """s[mask] = sum of c[j] over the players j in mask, for all 2^len(c) masks.

    Built by doubling: the masks whose highest bit is j are the masks below
    2^j with c[j] added, so each sum adds its terms to zero in the order of
    c.  With c all ones this gives coalition sizes; with c = beta it gives
    a linear form of every coalition.
    """
    c = np.asarray(c)
    s = np.zeros(1 << c.size, dtype=c.dtype)
    for j, cj in enumerate(c):
        np.add(s[: 1 << j], cj, out=s[1 << j : 2 << j])
    return s


def _term_masks(indices: np.ndarray, masks):
    """Bitmask over a term's own players, bit k for player indices[k], of each coalition bitmask."""
    local = np.zeros_like(masks)
    for k, j in enumerate(indices):
        local |= ((masks >> j) & 1) << k
    return local


def _table_chunks(q: int):
    """Rows per chunk, min(CHUNK_ROWS, 2^(q-1)), and the first mask of each chunk."""
    step = min(CHUNK_ROWS, 1 << (q - 1))
    return step, range(0, 1 << q, step)


def _tabulate_rows(values, q: int) -> np.ndarray:
    """values(rows) of all 2^q coalitions, on one `_table_chunks` chunk of rows at a time."""
    step, starts = _table_chunks(q)
    table = np.empty(1 << q)
    for start in starts:
        table[start : start + step] = values(mask_rows(np.arange(start, start + step, dtype=np.int64), q))
    return table


def _guard_table(q: int) -> None:
    if q > TABLE_LIMIT:
        raise SizeGuard(f"value tables support q <= {TABLE_LIMIT}, got q = {q}")


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
    # a linear form's coefficients are its vector beta, a bilinear form's its matrix A
    name = "beta" if kind in LINEAR_KINDS else "A"
    extra = set(raw) - {"kind", "indices", "offset", name}
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

    if raw.get(name) is None:
        raise SchemaError(f"{where}: kind {kind!r} requires '{name}'")
    coeffs = _as_float_array(raw[name], where, name)
    shape, wanted = ((k,), f"have length {k}") if name == "beta" else ((k, k), f"be {k}x{k}")
    if coeffs.shape != shape:
        raise DimensionError(f"{where}: {name} must {wanted}, got shape {coeffs.shape}")

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
    ValueFunctionSpec is the standard one.  The value table of all 2^q
    payoffs is built the first time an exact route, or a lookup of at least
    2^q masks, needs it, and kept: every later route and every lookup reads
    it, and the game is not called again.

    `eval_count` is the paper's logical cost: 1 per kernel draw, 2 per paired
    kernel draw, q per walked order, 2q per paired order and 2^q per value
    table a route asks for.  The game may see far fewer rows: the table is
    built once per evaluator, and a ValueFunctionSpec builds it from tables
    over each term's own players.
    """

    def __init__(self, game):
        self.game = game
        self.q = int(game.q)
        self.eval_count = 0
        self._table: np.ndarray | None = None
        # a table build that raised NonFiniteError, which is not tried again
        self._refused = False

    def value_table(self) -> np.ndarray:
        """Payoff of every coalition, indexed by bitmask, as a read-only array.

        The first call builds it: a ValueFunctionSpec tabulates itself
        (`ValueFunctionSpec.value_table`); any other game is called on the
        2^q coalitions in mask order, as slices of min(CHUNK_ROWS, 2^(q-1))
        rows.  Later calls return the same array.  Every call counts 2^q
        logical evaluations.  SizeGuard for q > TABLE_LIMIT, before anything
        is allocated.
        """
        table = self._built_table()
        self.eval_count += 1 << self.q
        return table

    def _built_table(self) -> np.ndarray:
        """`value_table` without its count.

        A table holding a non-finite payoff, of any game, raises
        NonFiniteError and is not kept; every later call raises at once,
        without building it again.
        """
        _guard_table(self.q)
        if self._table is None:
            if self._refused:
                raise NonFiniteError("value function produced a non-finite payoff")
            try:
                if isinstance(self.game, ValueFunctionSpec):
                    # a declared game refuses its own non-finite payoffs
                    table = self.game.value_table()
                else:
                    table = _tabulate_rows(self.game.values, self.q)
                    if not np.all(np.isfinite(table)):
                        raise NonFiniteError("value function produced a non-finite payoff")
            except NonFiniteError:
                self._refused = True
                raise
            table.flags.writeable = False
            self._table = table
        return self._table

    def lookup_table(self, lookups: int) -> np.ndarray | None:
        """The value table a lookup of `lookups` masks reads, or None if it evaluates rows.

        That is the table held; with none held, a lookup of at least 2^q
        masks (q <= TABLE_LIMIT) builds it, unless a build has raised
        NonFiniteError, now or before: then no table is kept, and the
        lookup evaluates rows.  Counts nothing.
        """
        if self._table is None and 1 << self.q <= lookups and self.q <= TABLE_LIMIT:
            with suppress(NonFiniteError):
                self._built_table()
        return self._table

    def values_at(self, masks, out=None) -> np.ndarray:
        """Payoffs of the coalitions encoded by an (n, k) int64 bitmask array.

        Counts one logical evaluation per mask, whatever the game sees.  The
        payoffs are gathered from the value table by one `take`.  A lookup
        of at least 2^q masks builds the table if none is held yet; a
        smaller one evaluates each column as n indicator rows.  So does
        every lookup once a table build has raised NonFiniteError, which
        keeps no table and is not tried again.  A lookup that evaluates
        rows raises NonFiniteError, counting nothing, if one of its own
        coalitions has a non-finite payoff, from any game.  `out`, a
        float (n, k) array, may share memory with `masks`: each mask is
        read before its payoff overwrites it.
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
        table = self.lookup_table(masks.size)
        if table is None:
            for col in range(masks.shape[1]):
                out[:, col] = self.game.values(mask_rows(masks[:, col], q))
                if not np.all(np.isfinite(out[:, col])):
                    raise NonFiniteError("value function produced a non-finite payoff")
        else:
            # the masks were range-checked above, so clipping never bites;
            # unlike the default mode it writes into `out` without a buffer
            np.take(table, masks, out=out, mode="clip")
        self.eval_count += masks.size
        return out
