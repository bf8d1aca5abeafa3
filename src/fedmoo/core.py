"""Shared domain types, deterministic random streams, and experiment configuration.

The simulator routes S objectives over M clients through a binary indicator
matrix: entry (s, i) is 1 when client i holds data for objective s.  Model
points, per-objective direction rows, and simplex weight vectors are plain
float64 numpy arrays; the validators below enforce their invariants at module
boundaries instead of wrapping every vector in a class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import operator

import numpy as np

__all__ = [
    "ConfigError",
    "IndicatorMatrix",
    "client_stream",
    "STREAM_VERSION",
    "as_model_point",
    "as_direction_set",
    "validate_simplex",
    "roundoff_bound",
    "ProblemConfig",
    "ExperimentConfig",
    "CONFIG_FIELDS",
    "check_values",
    "RoundRecord",
]

# Sum-to-one slack allowed for simplex weight vectors.
SIMPLEX_ATOL = 1e-12

# Stream-domain tags keep client streams, the output sampler, and any future
# consumers of the experiment seed on disjoint key prefixes.
_DOMAIN_CLIENT = 0
_DOMAIN_OUTPUT = 1
_U64 = 2**64
# Client-stream keys kept, a few runs' worth of (seed, client[, objective])
_KEYS_CACHED = 4096

# The layout of client_stream's key and counter; summary.json records it, so
# a summary says which draws it reproduces (README, "Determinism")
STREAM_VERSION = 2


class ConfigError(ValueError):
    """Invalid experiment configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class IndicatorMatrix:
    """Binary S x M routing of objectives to clients.

    ``owner_sets[s]`` lists the clients holding objective s, the owner set
    R_s = {i : a_si = 1}, and ``client_objectives[i]`` the objectives client
    i works on, both ascending.  Every objective must be owned by a client
    and every client must own an objective; otherwise, or for entries other
    than 0 and 1, raises ``ConfigError`` naming the offending row or column.
    """

    entries: np.ndarray
    owner_sets: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    client_objectives: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.size == 0:
            raise ConfigError("indicator", f"expected a nonempty 2-D matrix, got shape {a.shape}")
        if not np.isin(a, (0, 1)).all():  # checked before the cast truncates the entries
            raise ConfigError("indicator", "entries must be 0 or 1")
        a = a.astype(np.int64)
        owners = tuple(tuple(int(i) for i in np.flatnonzero(row)) for row in a)
        objectives = tuple(tuple(int(s) for s in np.flatnonzero(col)) for col in a.T)
        for s, clients in enumerate(owners):
            if not clients:
                raise ConfigError("indicator", f"objective {s} has no owning client (empty row)")
        for i, owned in enumerate(objectives):
            if not owned:
                raise ConfigError("indicator", f"client {i} owns no objective (empty column)")
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "owner_sets", owners)
        object.__setattr__(self, "client_objectives", objectives)
        self.entries.setflags(write=False)

    @property
    def n_objectives(self) -> int:
        return self.entries.shape[0]

    @property
    def n_clients(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def identity(cls, n: int) -> "IndicatorMatrix":
        """One distinct objective per client (S = M = n)."""
        return cls(np.eye(n, dtype=np.int64))

    @classmethod
    def all_ones(cls, n_objectives: int, n_clients: int) -> "IndicatorMatrix":
        """Every client shares every objective."""
        return cls(np.ones((n_objectives, n_clients), dtype=np.int64))


def client_stream(seed: int, client: int, round_index: int, step: int,
                  objective: int | None = None) -> np.random.Generator:
    """Independent counter-based random stream for one (client, round, step).

    Streams are Philox generators (stream format :data:`STREAM_VERSION`), so
    identical inputs yield identical draws regardless of the order or
    parallelism in which clients execute.  The Philox key is a function of
    the experiment seed and the client alone, ``objective`` included for
    per-objective sampling (``None`` gives the per-client stream shared by
    all of that client's objectives): the two uint64 words
    ``SeedSequence(entropy=seed mod 2**64, spawn_key=(0, client[, 1 +
    objective])).generate_state(2, np.uint64)``.  The round and step go in
    the counter, ``[0, step, round_index, 0]`` with the low word first.
    Each index must lie in ``[0, 2**64)``, since a counter word holds no more.
    """
    for name, v in (("client", client), ("round", round_index), ("step", step),
                    ("objective", 0 if objective is None else objective)):
        if not 0 <= operator.index(v) < _U64:
            raise ValueError(f"{name} index must lie in [0, 2**64), got {v}")
    spawn_key = ((_DOMAIN_CLIENT, client) if objective is None
                 else (_DOMAIN_CLIENT, client, 1 + objective))
    key = _philox_key(int(seed) & (_U64 - 1), spawn_key)
    counter = np.array((0, step, round_index, 0), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key, counter=counter))


def output_stream(seed: int) -> np.random.Generator:
    """Stream reserved for the weighted-output round sampler: Philox keyed by
    ``SeedSequence(entropy=seed mod 2**64, spawn_key=(1,))``, at counter 0."""
    return np.random.Generator(np.random.Philox(_philox_key(int(seed) & (_U64 - 1),
                                                            (_DOMAIN_OUTPUT,))))


@functools.lru_cache(maxsize=_KEYS_CACHED)
def _philox_key(seed: int, spawn_key: tuple) -> np.random.bit_generator.ISeedSequence:
    """The Philox key of one client stream family, derived once per (seed,
    spawn key) and kept in a bounded cache; a run holds one entry per client,
    or per (client, objective).  lru_cache is thread-safe, and a race at worst
    derives the same key twice."""
    words = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key).generate_state(
        2, np.uint64)
    words.setflags(write=False)
    return _philox_key_type()(words)


@functools.cache
def _philox_key_type() -> type:
    """The immutable ``ISeedSequence`` that hands Philox a stored two-word key, the
    only state Philox asks for.  ``Philox(key=...)`` would instead seed, and then
    discard, a ``SeedSequence`` from OS entropy on every call.  Made on first use,
    so that importing fedmoo does not import ``numpy.random``."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        __slots__ = ("_key",)

        def __init__(self, key):
            self._key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two uint64 words")
            return self._key

    return PhiloxKey


def as_model_point(x, d: int | None = None) -> np.ndarray:
    """Validate and return a model point as a 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"model point must be 1-D, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"model point has dimension {v.shape[0]}, expected {d}")
    if not np.isfinite(v).all():
        raise ValueError("model point contains non-finite entries")
    return v


def as_direction_set(rows) -> np.ndarray:
    """Validate an S x d matrix of per-objective directions."""
    g = np.asarray(rows, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.ndim != 2 or g.shape[0] == 0:
        raise ValueError(f"direction set must be a nonempty 2-D matrix, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("direction set contains non-finite entries")
    return g


def validate_simplex(weights) -> np.ndarray:
    """Check nonnegativity and unit sum, within ``SIMPLEX_ATOL``, of a simplex weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("simplex weights must be a nonempty 1-D vector")
    if (w < 0).any():
        raise ValueError(f"simplex weights must be nonnegative, min is {w.min()}")
    if abs(w.sum() - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"simplex weights sum to {w.sum()!r}, expected 1 within {SIMPLEX_ATOL}")
    return w


def roundoff_bound(scale: float) -> float:
    """How far below zero roundoff may push a difference that is nonnegative in
    exact arithmetic: 1e-12 of ``scale``, the summed magnitude of its terms,
    and never less than 1e-12, so a scaling of the data scales the bound too."""
    return 1e-12 * max(1.0, scale)


@dataclass(frozen=True)
class ProblemConfig:
    """Declarative description of a synthetic problem suite (see config schema)."""

    kind: str
    params: dict


def at_least(bound):
    """The rule ``value >= bound``; a rule is a (text, test) pair, and its text
    reads after "must be"."""
    return f">= {bound}", lambda v: v >= bound


def above(bound):
    """The rule ``value > bound``."""
    return f"> {bound}", lambda v: v > bound


def in_range(lo, hi, text=None):
    """The rule ``lo <= value < hi``, read as ``in [lo, hi)`` unless ``text`` is given."""
    return text or f"in [{lo}, {hi})", lambda v: lo <= v < hi


def one_of(*choices):
    """The rule ``value in choices``."""
    return f"one of {choices}", lambda v: v in choices


SEED_RANGE = in_range(0, _U64, "in [0, 2**64)")

_SHARING = ("per_client", "per_objective")

# ExperimentConfig field -> (type in a config file, rule on its value); the
# other fields have their own parsing.
CONFIG_FIELDS = {
    "d": (int, at_least(1)),
    "K": (int, at_least(1)),
    "T": (int, at_least(1)),
    "eta_global": (float, ("finite and > 0", lambda v: 0 < v < np.inf)),
    "eta_local": (float, in_range(0, np.inf, "finite and >= 0")),
    "batch_size": (int, at_least(1)),
    "seed": (int, SEED_RANGE),
    "sample_sharing": (str, one_of(*_SHARING)),
}


def check_values(rules: dict, values: dict, prefix: str = "") -> None:
    """Check each ``values[key]`` against the rule of ``rules[key] = (type, rule)``.

    A missing or None value (an optional key left unset) and a None rule
    pass; the first value its rule refuses raises ``ConfigError`` at the
    field path ``prefix + key``: "must be <rule>, got <value>".
    """
    for key, (_, rule) in rules.items():
        value = values.get(key)
        if rule is not None and value is not None and not rule[1](value):
            raise ConfigError(prefix + key, f"must be {rule[0]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable description of one experiment run.

    The indicator fixes the objective count S and the client count M.
    ``batch_size`` picks the gradient oracle: None takes exact shard
    gradients (FMGDA), an int draws minibatches of that size (FSMGDA), and a
    batch that covers a client's shard is exact there too: the round engine
    passes the suite no indices for it, and draws none.  ``eta_global``
    is the server step size applied to the combined direction;
    ``eta_local`` drives the K per-objective steps each client takes between
    synchronizations.  With ``normalize_delta_by_K`` the accumulated client
    update is divided by K before aggregation, so the server step size stays
    comparable across K; switching it off returns the raw accumulated sum.
    """

    indicator: IndicatorMatrix
    d: int
    K: int
    T: int
    eta_global: float
    eta_local: float
    batch_size: int | None = None
    seed: int = 0
    sample_sharing: str = "per_client"
    normalize_delta_by_K: bool = True
    problem: ProblemConfig | None = None
    init: np.ndarray | None = None
    client_weights: np.ndarray | None = None
    name: str = "run"

    def __post_init__(self):
        check_values(CONFIG_FIELDS, vars(self))
        if self.init is not None:
            try:
                object.__setattr__(self, "init", as_model_point(self.init, self.d))
            except ValueError as exc:
                raise ConfigError("init", str(exc)) from exc
        if self.client_weights is not None:
            w = np.asarray(self.client_weights, dtype=np.float64)
            if w.shape != (self.M,) or not ((w > 0) & (w < np.inf)).all():
                raise ConfigError("client_weights", "must be M finite positive values")
            object.__setattr__(self, "client_weights", w)

    @property
    def M(self) -> int:
        """Client count: the indicator's columns."""
        return self.indicator.n_clients

    @property
    def S(self) -> int:
        """Objective count: the indicator's rows."""
        return self.indicator.n_objectives

    @property
    def mode(self) -> str:
        """``"full_gradient"`` (FMGDA) without a batch size, else ``"stochastic"`` (FSMGDA)."""
        return "full_gradient" if self.batch_size is None else "stochastic"

    def initial_point(self) -> np.ndarray:
        return np.zeros(self.d) if self.init is None else self.init.copy()


@dataclass(frozen=True)
class RoundRecord:
    """Telemetry for one communication round, measured at the round's start point.

    ``d_norm_sq`` is the squared norm of the server direction built from
    accumulated client updates; ``dbar_norm_sq`` applies the same weights to
    the true full gradients and is the stationarity metric for non-convex
    runs.  ``delta_q`` is the weighted optimality gap, NaN when the problem
    has no closed-form scalarization minimizer.  ``x_snapshot`` is the
    round's start point x_t, the weighted output's candidate.
    """

    t: int
    weights: np.ndarray
    d_norm_sq: float
    dbar_norm_sq: float
    losses: np.ndarray
    delta_q: float
    fw_gap: float
    lambda_drift: float
    x_snapshot: np.ndarray | None = None

    def __post_init__(self):
        if self.d_norm_sq < 0 or self.dbar_norm_sq < 0:
            raise ValueError("squared norms must be nonnegative")
        if self.delta_q < 0:  # False for NaN
            raise ValueError(f"delta_q must be nonnegative, got {self.delta_q}")
