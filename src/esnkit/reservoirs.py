"""Seeded generation of reservoir networks and cycle-density measurement.

Every generator is a pure function of its parameters and seed: calling it
twice with the same arguments yields byte-identical reservoirs. Ensemble
sweeps derive per-member seeds as ``(base_seed, member_index)`` tuples.

Weight matrices are stored sparse (CSR); spectral normalization densifies
internally, which is fine at the sizes used here.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateSpectrumError,
    GenerationError,
    ParameterError,
)
from . import spectral
from .spectral import _rescale

__all__ = [
    "Normalization",
    "ReservoirMeta",
    "Reservoir",
    "CycleDensity",
    "RADIUS_ONE",
    "DEFAULT_CYCLE_NORMALIZATION",
    "gen_er",
    "gen_scale_free",
    "gen_plw",
    "gen_random_regular",
    "gen_cycle_enhanced",
    "gen_combined",
    "gen_delay_line",
    "make_reservoir",
    "measure_cycle_density",
    "make_rng",
]

SeedLike = int | Sequence[int]


def make_rng(seed: SeedLike, *key: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` plus an optional derivation key;
    a negative part is a ``ParameterError``."""
    seeds = [seed] if isinstance(seed, (int, np.integer)) else seed
    parts = [int(s) for s in (*seeds, *key)]
    if min(parts, default=0) < 0:
        raise ParameterError(f"seeds must be non-negative, got {parts}")
    return np.random.default_rng(parts)


@dataclass(frozen=True)
class Normalization:
    """Requested global rescaling of a generated weight matrix.

    ``mode`` is either ``"spectral_radius"`` or ``"avg_modulus"``; ``value``
    is the target for the corresponding spectral statistic.
    """

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in spectral._STATISTICS:
            raise ParameterError(f"unknown normalization mode {self.mode!r}")
        if not self.value > 0:
            raise ParameterError("normalization value must be positive")


RADIUS_ONE = Normalization("spectral_radius", 1.0)
#: Post-construction mean-modulus target used when callers do not supply one.
DEFAULT_CYCLE_NORMALIZATION = Normalization("avg_modulus", 0.6)


@dataclass
class ReservoirMeta:
    family: str
    n: int
    avg_degree: float
    seed: SeedLike | None
    target_cycle_density: dict[int, float] = field(default_factory=dict)
    normalization: Normalization | None = None
    params: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


@dataclass
class Reservoir:
    """A fixed recurrent network plus its input and feedback weights.

    The spectrum of ``W`` is kept once known, paired with the ``W`` object it
    belongs to: generators store the one their normalization computed, and
    ``eigenvalues()`` computes it for any other ``W``. Editing ``W`` in place
    (``W.data``) is unsupported, because the pair would go stale unnoticed.
    """

    W: sp.csr_array
    w_in: np.ndarray
    w_ofb: np.ndarray
    meta: ReservoirMeta
    _spectrum: tuple = field(default=(None, None), init=False, repr=False,
                             compare=False)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Complex spectrum of ``W``, computed at most once per ``W``."""
        if self._spectrum[0] is not self.W:
            self._spectrum = (self.W, spectral.eigenvalues(self.W))
        return self._spectrum[1]


@dataclass
class CycleDensity:
    """Signed cycle-density profile: per length, the net signed count of
    edges embedded in simple directed cycles, divided by the edge count."""

    density: dict[int, float]
    edge_count: int


# ---------------------------------------------------------------------------
# shared construction plumbing
# ---------------------------------------------------------------------------

def _finalize(W, *, family: str, avg_degree: float, seed: SeedLike | None,
              normalization: Normalization | None, rng: np.random.Generator | None,
              input_gain: float, feedback: bool,
              target_cycle_density: dict[int, float] | None = None,
              params: dict | None = None,
              warnings_: list[str] | None = None) -> Reservoir:
    """Normalize, draw the input/feedback vectors, and assemble a Reservoir."""
    if not (0 < input_gain <= 1.0):
        raise ParameterError("input_gain must lie in (0, 1]")
    W = sp.csr_array(W)
    W.sum_duplicates()
    W.eliminate_zeros()
    n = W.shape[0]
    warnings_ = list(warnings_ or [])
    W, spectrum = (W, None) if normalization is None else _rescaled(
        W, normalization, warnings_, "degenerate spectrum; normalization skipped")
    if rng is None:
        w_in = np.zeros(n)
        w_ofb = np.zeros(n)
    else:
        w_in = rng.uniform(-1.0, 1.0, n) * input_gain
        w_ofb = rng.uniform(-1.0, 1.0, n) if feedback else np.zeros(n)
    meta = ReservoirMeta(
        family=family,
        n=n,
        avg_degree=avg_degree,
        seed=seed,
        target_cycle_density=dict(target_cycle_density or {}),
        normalization=normalization,
        params=dict(params or {}),
        warnings=warnings_,
    )
    reservoir = Reservoir(W=W, w_in=w_in, w_ofb=w_ofb, meta=meta)
    if spectrum is not None:
        reservoir._spectrum = (W, spectrum)
    return reservoir


def _rescaled(W, normalization: Normalization, warnings_: list[str],
              warning: str):
    """``W`` rescaled to ``normalization`` and its spectrum; a degenerate (say,
    nilpotent) ``W`` comes back unscaled with ``None``, recording ``warning``."""
    try:
        return _rescale(W, normalization.mode, normalization.value)
    except DegenerateSpectrumError:
        warnings_.append(warning)
        return W, None


def _offdiag_positions(rng: np.random.Generator, n: int, count: int):
    """Sample ``count`` distinct off-diagonal positions of an n x n matrix."""
    total = n * (n - 1)
    if count > total:
        raise ParameterError(f"cannot place {count} edges in {total} slots")
    flat = rng.choice(total, size=count, replace=False)
    rows = flat // (n - 1)
    rem = flat % (n - 1)
    cols = rem + (rem >= rows)
    return rows, cols


# ---------------------------------------------------------------------------
# classical random ensembles
# ---------------------------------------------------------------------------

def _er_topology(n: int, avg_degree: float, seed: SeedLike):
    """The generator of ``seed`` and an Erdos-Renyi edge mask: each of the
    ``n*(n-1)`` ordered off-diagonal pairs carries an edge independently
    with probability ``avg_degree / (n - 1)``."""
    if n < 2 or not 0 < avg_degree < n:
        raise ParameterError("n must be >= 2 and avg_degree lie in (0, n)")
    rng = make_rng(seed)
    p = avg_degree / (n - 1)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return rng, mask


def gen_er(n: int, avg_degree: float, seed: SeedLike,
           normalization: Normalization | None = RADIUS_ONE, *,
           input_gain: float = 1.0, feedback: bool = False) -> Reservoir:
    """Directed Erdos-Renyi reservoir (see ``_er_topology``) with i.i.d.
    Gaussian weights."""
    rng, mask = _er_topology(n, avg_degree, seed)
    weights = rng.standard_normal((n, n))
    W = sp.coo_array(np.where(mask, weights, 0.0))
    return _finalize(W, family="ER", avg_degree=avg_degree, seed=seed,
                     normalization=normalization, rng=rng,
                     input_gain=input_gain, feedback=feedback)


def gen_plw(n: int, avg_degree: float, beta: float, seed: SeedLike,
            normalization: Normalization | None = RADIUS_ONE, *,
            input_gain: float = 1.0, feedback: bool = False) -> Reservoir:
    """Erdos-Renyi topology with sign-symmetric Pareto-tail weights.

    Weight magnitudes follow a density proportional to ``w**-beta`` for
    ``w >= 1``; signs are an independent fair coin so cycle feedback is
    balanced on average. ``beta`` must exceed 2 (finite mean).
    """
    if beta <= 2:
        raise ParameterError("beta must exceed 2 for a finite-mean weight law")
    rng, mask = _er_topology(n, avg_degree, seed)
    magnitudes = (1.0 - rng.random((n, n))) ** (-1.0 / (beta - 1.0))
    signs = rng.integers(0, 2, size=(n, n)) * 2 - 1
    W = sp.coo_array(np.where(mask, magnitudes * signs, 0.0))
    return _finalize(W, family="PLW", avg_degree=avg_degree, seed=seed,
                     normalization=normalization, rng=rng,
                     input_gain=input_gain, feedback=feedback,
                     params={"beta": beta})


def _powerlaw_degree_sequence(rng: np.random.Generator, n: int,
                              avg_degree: float, gamma: float) -> np.ndarray:
    # Continuous Pareto draws rescaled to the requested empirical mean.
    # Degrees are capped at n/2: hubs near n-1 on both sides make a simple
    # wiring infeasible, and the heterogeneity trends survive the cap.
    x = (1.0 - rng.random(n)) ** (-1.0 / (gamma - 1.0))
    k = np.rint(x * (avg_degree / x.mean())).astype(int)
    return np.clip(k, 0, n // 2)


def _balance_degree_sums(rng: np.random.Generator, out_deg: np.ndarray,
                         in_deg: np.ndarray, n: int) -> None:
    """Add stubs on the lighter side until both sequences sum equally."""
    while True:
        diff = int(out_deg.sum() - in_deg.sum())
        if diff == 0:
            return
        side = in_deg if diff > 0 else out_deg
        room = np.flatnonzero(side < n - 1)
        if len(room) == 0:
            raise GenerationError("cannot balance degree sequences")
        picks = rng.choice(room, size=min(abs(diff), len(room)), replace=False)
        side[picks] += 1


def gen_scale_free(n: int, avg_degree: float, gamma: float, seed: SeedLike,
                   normalization: Normalization | None = RADIUS_ONE, *,
                   input_gain: float = 1.0, feedback: bool = False) -> Reservoir:
    """Directed scale-free reservoir via a configuration model.

    In- and out-degree sequences are drawn from a power law with exponent
    ``gamma`` (applied to both directions), rescaled to ``avg_degree``, and
    wired by random stub pairing. Self-loops and multi-edges are repaired
    by re-pairing; after 100 unsuccessful rounds a
    ``GenerationError`` is raised, or a ``ParameterError`` if no round drew
    an edge (``avg_degree`` too small for ``n``).
    """
    if gamma < 2:
        raise ParameterError("gamma must be >= 2")
    if not 0 < avg_degree < n:
        raise ParameterError("avg_degree must lie in (0, n)")
    rng = make_rng(seed)

    out_stubs = in_stubs = None
    drew_edges = False
    for _ in range(100):
        out_deg = _powerlaw_degree_sequence(rng, n, avg_degree, gamma)
        in_deg = _powerlaw_degree_sequence(rng, n, avg_degree, gamma)
        _balance_degree_sums(rng, out_deg, in_deg, n)
        sources = np.repeat(np.arange(n), out_deg)
        targets = rng.permutation(np.repeat(np.arange(n), in_deg))
        n_edges = len(sources)
        if n_edges == 0:
            continue
        drew_edges = True
        # local repair: swap conflicting target stubs until the graph is
        # simple; a stagnating pairing means the sequence is
        # (near-)infeasible, so the whole sequence is resampled
        best_bad = n_edges + 1
        stagnant = 0
        for _ in range(200):
            pair_ids = sources * n + targets
            order = np.argsort(pair_ids, kind="stable")
            sorted_ids = pair_ids[order]
            dup = np.zeros(n_edges, dtype=bool)
            dup[order[1:]] = sorted_ids[1:] == sorted_ids[:-1]
            bad = np.flatnonzero(dup | (sources == targets))
            if len(bad) == 0:
                out_stubs, in_stubs = sources, targets
                break
            if len(bad) < best_bad:
                best_bad = len(bad)
                stagnant = 0
            else:
                stagnant += 1
                if stagnant >= 25:
                    break
            swap = rng.integers(0, n_edges, size=len(bad))
            for b, s in zip(bad, swap):
                targets[b], targets[s] = targets[s], targets[b]
        if out_stubs is not None:
            break
    else:
        if not drew_edges:
            raise ParameterError(
                f"avg_degree {avg_degree} is too small for n={n}: every "
                f"degree drawn in 100 rounds rounded to 0")
        raise GenerationError(
            "no simple wiring found in 100 resampling rounds")

    vals = rng.standard_normal(len(out_stubs))
    # edge u -> v enters the state update of v: row = target, col = source
    W = sp.coo_array((vals, (in_stubs, out_stubs)), shape=(n, n))
    return _finalize(W, family="SF", avg_degree=avg_degree, seed=seed,
                     normalization=normalization, rng=rng,
                     input_gain=input_gain, feedback=feedback,
                     params={"gamma": gamma})


def gen_random_regular(n: int, degree: int, seed: SeedLike,
                       normalization: Normalization | None = RADIUS_ONE, *,
                       input_gain: float = 1.0, feedback: bool = False) -> Reservoir:
    """Out-regular random reservoir: every node has exactly ``degree``
    out-edges to distinct non-self targets; in-degrees fall out of the
    uniform pairing. Gaussian weights."""
    if not 0 < degree < n:
        raise ParameterError("degree must lie in (0, n)")
    rng = make_rng(seed)
    sources = np.repeat(np.arange(n), degree)
    targets = np.empty(n * degree, dtype=int)
    for i in range(n):
        picks = rng.choice(n - 1, size=degree, replace=False)
        targets[i * degree:(i + 1) * degree] = picks + (picks >= i)
    vals = rng.standard_normal(n * degree)
    W = sp.coo_array((vals, (targets, sources)), shape=(n, n))
    return _finalize(W, family="RR", avg_degree=float(degree), seed=seed,
                     normalization=normalization, rng=rng,
                     input_gain=input_gain, feedback=feedback)


def gen_delay_line(n: int, weight: float, input_node: int = 0, *,
                   input_gain: float = 1.0) -> Reservoir:
    """Directed ring ``i -> i+1 (mod n)`` with a uniform weight.

    The input enters at a single node, so neuron ``(input_node + k) mod n``
    carries a k-step-delayed copy of the drive. Deterministic.
    """
    if weight <= 0:
        raise ParameterError("weight must be positive")
    if not 0 <= input_node < n:
        raise ParameterError("input_node out of range")
    rows = (np.arange(n) + 1) % n
    cols = np.arange(n)
    W = sp.coo_array((np.full(n, float(weight)), (rows, cols)), shape=(n, n))
    res = _finalize(W, family="DELAY_LINE", avg_degree=1.0, seed=None,
                    normalization=None, rng=None, input_gain=input_gain,
                    feedback=False, params={"weight": weight,
                                            "input_node": input_node})
    res.w_in = np.zeros(n)
    res.w_in[input_node] = input_gain
    return res


# ---------------------------------------------------------------------------
# cycle-enhanced construction
# ---------------------------------------------------------------------------

def _cycle_edges(rng: np.random.Generator, n: int, length: int,
                 n_cycles: int, sign: int):
    """Random node-disjoint-per-cycle directed cycles with a shared weight.

    Each cycle draws one Gaussian weight for all its edges; if the sign of
    the edge-weight product disagrees with ``sign``, the last edge is
    flipped. Different cycles may reuse nodes.
    """
    rows = np.empty(n_cycles * length, dtype=int)
    cols = np.empty(n_cycles * length, dtype=int)
    vals = np.empty(n_cycles * length, dtype=float)
    for c in range(n_cycles):
        nodes = rng.choice(n, size=length, replace=False)
        w = rng.standard_normal()
        edge_w = np.full(length, w)
        prod_sign = 1 if length % 2 == 0 else (1 if w >= 0 else -1)
        if prod_sign != sign:
            edge_w[-1] = -edge_w[-1]
        lo = c * length
        rows[lo:lo + length] = np.roll(nodes, -1)  # edge nodes[k] -> nodes[k+1]
        cols[lo:lo + length] = nodes
        vals[lo:lo + length] = edge_w
    return rows, cols, vals


def gen_combined(n: int, connectivity: float,
                 cycle_density: Mapping[int, float], seed: SeedLike,
                 normalization: Normalization | None = DEFAULT_CYCLE_NORMALIZATION,
                 *, l1_mode: str = "weight_mix", input_gain: float = 1.0,
                 feedback: bool = False) -> Reservoir:
    """Reservoir with prescribed signed cycle densities, superposed.

    The total edge budget is ``connectivity * n**2 / 2``. For each length
    ``L >= 2``, ``floor(|rho_L| * budget / L)`` random L-cycles are injected,
    each with one shared Gaussian weight and its feedback sign forced to
    ``sign(rho_L)``; the remaining budget is a spectral-radius-normalized
    random part. Self-loops (length 1) come in two flavors:

    - ``l1_mode="weight_mix"``: the identity is blended into the sparse part
      with weight ``|rho_1|`` (the sparse part keeps its full edge budget);
      any ``|rho_1|`` up to 1 is expressible, but the measured edge-count
      density stays well below ``rho_1`` on dense graphs.
    - ``l1_mode="edge_count"``: ``floor(|rho_1| * budget)`` nodes receive
      self-loops and the random part shrinks accordingly, so the measured
      density matches ``rho_1``; infeasible when the loop budget exceeds n.

    The final matrix is rescaled to ``normalization``: mean eigenvalue
    modulus 0.6 by default, and unscaled for ``None`` (as in every generator).
    """
    if l1_mode not in ("weight_mix", "edge_count"):
        raise ParameterError(f"unknown l1_mode {l1_mode!r}")
    if not 0 < connectivity <= 1:
        raise ParameterError("connectivity must lie in (0, 1]")
    try:
        pairs = [(int(length), float(r)) for length, r in cycle_density.items()]
        if len(dict(pairs)) < len(pairs) or any(
                isinstance(r, (str, bool)) for r in cycle_density.values()):
            raise TypeError  # a length named twice, or a value not a number
    except (AttributeError, TypeError, ValueError):
        raise ParameterError("cycle_density must map distinct integer cycle "
                             f"lengths to numbers, got {cycle_density!r}") from None
    cycle_density = {length: r for length, r in pairs if r != 0.0}
    for length, r in cycle_density.items():
        if length < 1:
            raise ParameterError("cycle lengths must be >= 1")
        if length > n:
            raise ParameterError(f"cycle length {length} exceeds the {n} "
                                 "nodes of the reservoir")
        if not abs(r) <= 1:
            raise ParameterError("cycle densities must lie in [-1, 1]")
    if sum(abs(r) for r in cycle_density.values()) > 1 + 1e-9:
        raise ParameterError("cycle densities must satisfy sum(|rho|) <= 1")

    rng = make_rng(seed)
    budget = int(round(connectivity * n * n / 2))
    mix = cycle_density.get(1, 0.0) if l1_mode == "weight_mix" else 0.0
    warnings_: list[str] = []
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    cycle_counts: dict[int, int] = {}

    for length in sorted(cycle_density):
        r = cycle_density[length]
        if length == 1 and mix != 0.0:
            continue
        count = int(abs(r) * budget / length)
        cycle_counts[length] = count
        if length == 1 and count > n:
            raise ParameterError(
                f"self-loop budget {count} exceeds {n} nodes; use weight_mix")
        if length >= 2 and count * length > n * (n - 1):
            raise ParameterError("requested cycles exceed available node tuples")
        if count == 0:
            warnings_.append(f"cycle budget for length {length} floored to zero")
            continue
        sign = 1 if r > 0 else -1
        if length == 1:
            nodes = rng.choice(n, size=count, replace=False)
            vals = sign * np.abs(rng.standard_normal(count))
            parts.append((nodes, nodes, vals))
        else:
            parts.append(_cycle_edges(rng, n, length, count, sign))

    n_random = budget - sum(len(rows) for rows, _, _ in parts)
    if n_random > 0:
        rows, cols = _offdiag_positions(rng, n, n_random)
        random_part = sp.coo_array((rng.standard_normal(n_random), (rows, cols)),
                                   shape=(n, n))
        random_part = sp.coo_array(_rescaled(
            random_part, RADIUS_ONE, warnings_,
            "random part has degenerate spectrum; left unscaled")[0])
        parts.append((random_part.row, random_part.col, random_part.data))

    rows, cols, vals = ([np.concatenate(p) for p in zip(*parts)] if parts
                        else ([], [], []))
    W = sp.coo_array((vals, (rows, cols)), shape=(n, n))

    if mix != 0.0:
        base = sp.csr_array(W)
        if base.nnz > 0:
            base = _rescaled(base, RADIUS_ONE, warnings_,
                             "sparse part has degenerate spectrum; left unscaled")[0]
        W = (1.0 - abs(mix)) * base + mix * sp.eye_array(n, format="csr")

    return _finalize(W, family="CYCLE", avg_degree=connectivity * n / 2,
                     seed=seed, normalization=normalization, rng=rng,
                     input_gain=input_gain, feedback=feedback,
                     target_cycle_density=cycle_density,
                     params={"connectivity": connectivity, "l1_mode": l1_mode,
                             "budget": budget, "cycle_counts": cycle_counts,
                             "random_edges": max(n_random, 0)},
                     warnings_=warnings_)


def gen_cycle_enhanced(n: int, connectivity: float, length: int,
                       cycle_density: float, seed: SeedLike,
                       normalization: Normalization | None = DEFAULT_CYCLE_NORMALIZATION,
                       *, l1_mode: str = "weight_mix", input_gain: float = 1.0,
                       feedback: bool = False) -> Reservoir:
    """Single-length special case of :func:`gen_combined`."""
    return gen_combined(n, connectivity, {length: cycle_density}, seed,
                        normalization, l1_mode=l1_mode,
                        input_gain=input_gain, feedback=feedback)


_FAMILY_BUILDERS = {
    "ER": gen_er,
    "SF": gen_scale_free,
    "PLW": gen_plw,
    "RR": gen_random_regular,
    "CYCLE": gen_combined,
    "DELAY_LINE": gen_delay_line,
}


#: Annotation types a config value is checked against; no bool is a number.
_CONFIG_TYPES = {"int": (int, np.integer),
                 "float": (int, float, np.integer, np.floating),
                 "bool": bool, "str": str, "dict": Mapping, "None": type(None)}


def _fits(kind: str, value) -> bool:
    """Whether a config value fits its parameter's annotation ``kind`` (a
    string: postponed evaluation); a float must be finite. Annotations other
    than unions, ``SeedLike``, ``Sequence[...]`` and the keys of
    ``_CONFIG_TYPES`` pass anything."""
    if kind == "SeedLike":
        kind = "int | Sequence[int]"
    if " | " in kind:
        return any(_fits(k, value) for k in kind.split(" | "))
    if kind.startswith("Sequence["):
        return (isinstance(value, (list, tuple))
                and all(_fits(kind[len("Sequence["):-1], v) for v in value))
    return kind not in _CONFIG_TYPES or (
        isinstance(value, _CONFIG_TYPES[kind])
        and (kind == "bool" or not isinstance(value, bool))
        and (not isinstance(value, float) or np.isfinite(value)))


def _builder(family):
    """The generator of a family name, in any case; an unknown family, or one
    that is not a string, is a config error."""
    try:
        return _FAMILY_BUILDERS[family.upper()]
    except (AttributeError, KeyError):
        raise ParameterError(f"unknown reservoir family {family!r}") from None


def make_reservoir(family: str, **kwargs) -> Reservoir:
    """Dispatch to a generator by family name (config-driven entry point)."""
    return _call_with_config(_builder(family), f"{family} reservoir", kwargs)


def _call_with_config(builder, section: str, cfg: Mapping):
    """``builder(**cfg)``, once ``cfg`` is checked as its keyword arguments:
    an unknown or missing key, or a value that does not fit its parameter's
    annotation, is a ``ParameterError`` naming the section and the key."""
    if not isinstance(cfg, Mapping):
        raise ParameterError(f"{section} config must be a mapping, got {cfg!r}")
    signature = inspect.signature(builder)
    try:
        signature.bind(**cfg)
    except TypeError as exc:
        raise ParameterError(f"{section} config: {exc}") from None
    for key, value in cfg.items():
        kind = str(signature.parameters[key].annotation)
        if not _fits(kind, value):
            raise ParameterError(
                f"{section} config: {key!r} must be {kind}, got {value!r}")
    return builder(**cfg)


# ---------------------------------------------------------------------------
# cycle-density measurement
# ---------------------------------------------------------------------------

def measure_cycle_density(W, max_length: int = 3) -> CycleDensity:
    """Signed cycle density for each cycle length up to ``max_length``.

    Each simple directed cycle contributes its length in edges to the sign
    class of its weight product; the density per length is
    ``(positive_edges - negative_edges) / total_edges``. With ``S`` the signs
    of the off-diagonal weights these counts are the traces of S^2 and S^3:
    without self-loops every closed 2- or 3-walk is a simple cycle.

    Lengths above 3 are unsupported: longer closed walks revisit nodes, and
    nothing downstream needs them.
    """
    if max_length not in (1, 2, 3):
        raise ParameterError("max_length must be 1, 2, or 3")
    A = sp.csr_array(W, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    edge_count = A.nnz
    if edge_count == 0:
        return CycleDensity({length: 0.0 for length in range(1, max_length + 1)}, 0)

    S = (A - sp.diags_array(A.diagonal())).sign()
    S2 = S @ S
    net = {1: np.sign(A.diagonal()).sum(), 2: S2.trace(),
           3: S2.multiply(S.T).sum()}
    density = {length: float(net[length]) / edge_count
               for length in range(1, max_length + 1)}
    return CycleDensity(density, edge_count)
