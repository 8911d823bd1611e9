"""Differential check of a rewritten function against its frozen original.

A performance PR that must not change behaviour keeps the pre-change
function verbatim in its test file as the *oracle* and asserts, on
generated inputs, that the rewrite returns the same outputs **and** leaves
every random stream where the oracle left it (same draws, same order — a
stream that is merely statistically equivalent would still shift every
later epoch of an experiment).  :func:`assert_matches_oracle` is that
assertion; the test supplies the two callables and a ``build`` that makes
the arguments from the drawn case::

    @given(cases)
    def test_rewrite(case):
        assert_matches_oracle(old_fn, new_fn, lambda: make_args(case))

``build`` is called twice — once per side — so each side consumes its own,
identically seeded generators.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.config import ExperimentConfig
from repro.datasets.synthetic import Dataset

__all__ = [
    "SCENARIOS",
    "ScenarioSpec",
    "PerRowClientDataStream",
    "alternating_projections",
    "assert_matches_oracle",
    "assert_same",
    "feasible_set_projection",
    "PerGeneratorRngFactory",
    "full_read",
    "independent_stream",
    "per_row_client_streams",
    "predrawn_rng",
    "sample_from_cdf_signed_zero_pass",
    "stacked_coordinate_median",
    "stacked_gradient_mean",
    "stacked_krum",
    "stacked_trimmed_mean",
    "stream_state",
]


def stream_state(gen: np.random.Generator) -> dict:
    """The comparable position of a generator's stream."""
    return gen.bit_generator.state


def full_read(factory, overlay: Optional[Dict[str, dict]] = None) -> str:
    """The ``rng.json`` a full re-read gives: every stream ``factory`` has
    created, read now, in creation order, overlaid as ``dict.update`` does
    and encoded as a snapshot writes it.  The incremental
    :meth:`repro.rng.RngFactory.capture` must equal it at every moment.

    A stream outside the row tables is read from its generator; a row from
    the shared generator when it is the holder, else from its table row."""
    found = [
        (factory._index[key], key, stream_state(gen))
        for key, gen in factory._streams.items()
    ]
    for rows in factory._rows.values():
        for k in np.flatnonzero(rows.index >= 0).tolist():
            state = stream_state(rows.gen) if k == rows.holder else rows._state(k)
            found.append((int(rows.index[k]), f"{rows.family}.{k}", state))
    states = {key: state for _, key, state in sorted(found, key=lambda f: f[0])}
    if overlay:
        states.update(overlay)
    return json.dumps(states, default=int)


def independent_stream(seed: int, key: str) -> np.random.Generator:
    """Stream ``key`` of a factory seeded ``seed``, as its own generator:
    what every row of a :class:`repro.rng.StreamRows` table must draw."""
    from repro.rng import derive_seed

    return np.random.default_rng(derive_seed(seed, key))


class PerGeneratorRngFactory:
    """``RngFactory`` as shipped when every stream, per-client ones
    included, was its own ``Generator``: the oracle for the row tables'
    ``capture``/``load_state``.  Verbatim, less the docstrings and ``child``."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._entries: Dict[str, Optional[str]] = {}
        self._held: set = set()
        self._touched: set = set()

    def _stream(self, key: str) -> np.random.Generator:
        from repro.rng import derive_seed

        gen = self._streams.get(key)
        if gen is None:
            gen = self._streams[key] = np.random.default_rng(
                derive_seed(self.seed, key)
            )
            self._entries[key] = None
            self._touched.add(key)
        return gen

    def get(self, key: str) -> np.random.Generator:
        self._held.add(key)
        return self._stream(key)

    def defer(self, key: str) -> "_PerGeneratorDeferredStream":
        return _PerGeneratorDeferredStream(self, key)

    def fresh(self, key: str) -> np.random.Generator:
        from repro.rng import derive_seed

        gen = np.random.default_rng(derive_seed(self.seed, key))
        self._streams[key] = gen
        self._entries.setdefault(key, None)
        self._held.add(key)
        return gen

    def capture(self, overlay: Optional[Dict[str, dict]] = None) -> str:
        from repro.rng import _entry, _read_state

        entries, streams = self._entries, self._streams
        for key in self._held | self._touched:
            entries[key] = _entry(key, _read_state(streams[key]))
        self._touched.clear()
        if overlay:
            entries = {
                **entries,
                **{key: _entry(key, state) for key, state in overlay.items()},
            }
        return "{" + ", ".join(entries.values()) + "}"

    def load_state(self, states: Dict[str, dict]) -> None:
        from repro.rng import _entry, _read_state

        for key, state in states.items():
            gen = self._stream(key)
            name = type(gen.bit_generator).__name__
            try:
                found = state["bit_generator"]
                if found != name:
                    raise ValueError(
                        f"bit generator {found!r} does not match the "
                        f"factory's {name!r}"
                    )
                gen.bit_generator.state = state
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"stream {key!r}: {name} rejects the saved state "
                    f"({type(exc).__name__}: {exc})"
                ) from None
            self._entries[key] = _entry(key, _read_state(gen))
            self._touched.discard(key)


class _PerGeneratorDeferredStream:
    __slots__ = ("_factory", "key")

    def __init__(self, factory: PerGeneratorRngFactory, key: str) -> None:
        self._factory = factory
        self.key = key

    def __call__(self) -> np.random.Generator:
        factory, key = self._factory, self.key
        factory._touched.add(key)
        gen = factory._streams.get(key)
        return gen if gen is not None else factory._stream(key)


def predrawn_rng(seed: int, predraws: int) -> np.random.Generator:
    """``default_rng(seed)`` after ``predraws`` single-uint32 draws: an odd
    count holds a buffered half-word (``has_uint32 = 1``), as a generator
    that has been drawing uint32s usually does."""
    gen = np.random.default_rng(seed)
    for _ in range(predraws):
        gen.integers(0, 7)
    return gen


def assert_same(expected: Any, actual: Any, where: str = "output") -> None:
    """Structural bit-equality: arrays by dtype, shape and bytes; floats by
    type and value with NaN equal to NaN (``0.0 == -0.0``: the sign of a
    zero is not asserted); generators by stream position; sequences and
    dataclasses field by field; anything else by ``==``."""
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), f"{where}: {type(actual)} is not an array"
        assert expected.dtype == actual.dtype, f"{where}: dtype {actual.dtype} != {expected.dtype}"
        assert expected.shape == actual.shape, f"{where}: shape {actual.shape} != {expected.shape}"
        assert expected.tobytes() == actual.tobytes(), f"{where}: array bytes differ"
    elif isinstance(expected, np.random.Generator):
        assert stream_state(expected) == stream_state(actual), f"{where}: stream position differs"
    elif isinstance(expected, float):
        assert type(actual) is type(expected), f"{where}: {type(actual)} != {type(expected)}"
        assert expected == actual or (expected != expected and actual != actual), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, (list, tuple)):
        assert type(actual) is type(expected), f"{where}: {type(actual)} != {type(expected)}"
        assert len(actual) == len(expected), f"{where}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{i}]")
    elif dataclasses.is_dataclass(expected) and not isinstance(expected, type):
        assert type(actual) is type(expected), f"{where}: {type(actual)} != {type(expected)}"
        for field in dataclasses.fields(expected):
            assert_same(
                getattr(expected, field.name), getattr(actual, field.name),
                f"{where}.{field.name}",
            )
    else:
        assert expected == actual, f"{where}: {actual!r} != {expected!r}"


def assert_matches_oracle(
    oracle: Callable,
    candidate: Callable,
    build: Callable[[], Tuple],
    state: Callable[..., Any] = lambda *args: [
        a for a in args if isinstance(a, np.random.Generator)
    ],
) -> None:
    """``candidate(*build())`` returns what ``oracle(*build())`` returns and
    leaves the same ``state(*args)`` behind — by default the position of
    every generator among the arguments; pass ``state`` to read streams (or
    anything else the call may touch) held inside the arguments."""
    args_o, args_c = build(), build()
    assert_same(oracle(*args_o), candidate(*args_c))
    assert_same(state(*args_o), state(*args_c), "state")


def alternating_projections(
    v: np.ndarray,
    projections: Sequence[Callable[[np.ndarray], np.ndarray]],
    tol: float = 1e-10,
    max_iters: int = 500,
) -> Tuple[np.ndarray, int]:
    """Dykstra's algorithm onto an intersection of convex sets, given each
    set's projection: the generic loop ``FedLProblem._dykstra`` fuses.
    Returns the point and the sweeps run (``max_iters`` when ``tol`` was
    never met).

    Unlike plain alternating projection, Dykstra converges to the *nearest*
    point of the intersection, so once it meets a tight ``tol`` it is the
    reference for ``FedLProblem.project``'s exact stages.
    """
    x = np.asarray(v, dtype=float).copy()
    increments = [np.zeros_like(x) for _ in projections]
    for sweep in range(1, max_iters + 1):
        max_shift = 0.0
        for i, proj in enumerate(projections):
            y = x + increments[i]
            x_new = proj(y)
            increments[i] = y - x_new
            max_shift = max(max_shift, float(np.max(np.abs(x_new - x))))
            x = x_new
        if max_shift <= tol:
            return x, sweep
    return x, max_iters


def _halfspace(a: np.ndarray, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """The projection onto ``{x : aᵀx <= b}`` (``a`` nonzero)."""
    nrm2 = float(a @ a)

    def project(v: np.ndarray) -> np.ndarray:
        gap = float(a @ v) - b
        return v if gap <= 0.0 else v - (gap / nrm2) * a

    return project


def feasible_set_projection(
    problem, v: np.ndarray, tol: float = 1e-10, max_iters: int = 500
) -> Tuple[np.ndarray, int]:
    """:func:`alternating_projections` onto ``problem``'s box ∩ budget ∩
    participation, in that sweep order, from the problem's public inputs."""
    inputs = problem.inputs
    lo, hi = problem.box_bounds()
    costs = np.concatenate([inputs.costs, [0.0]])
    part = np.concatenate([-inputs.available.astype(float), [0.0]])
    return alternating_projections(
        v,
        [
            lambda u: np.clip(u, lo, hi),
            _halfspace(costs, float(inputs.remaining_budget)),
            _halfspace(part, -float(inputs.min_participants)),
        ],
        tol=tol,
        max_iters=max_iters,
    )


def stacked_gradient_mean(grads):
    """``FLServer.aggregate_gradients`` as it stacked every gradient before
    taking the mean, verbatim."""
    if not grads:
        raise ValueError("no gradients to aggregate")
    return np.mean(np.stack([np.asarray(g, dtype=float) for g in grads]), axis=0)


def _stacked_copy(updates):
    """``defense._stacked`` as it copied every upload into a new stack."""
    if not updates:
        raise ValueError("no updates to aggregate")
    return np.stack([np.asarray(d, dtype=float) for d in updates])


def stacked_coordinate_median(updates):
    """``defense.coordinate_median`` over a copied stack, verbatim."""
    return np.median(_stacked_copy(updates), axis=0)


def stacked_trimmed_mean(updates, trim_fraction=0.2):
    """``defense.trimmed_mean`` over a copied stack, verbatim."""
    if not (0.0 <= trim_fraction < 0.5):
        raise ValueError("trim_fraction must be in [0, 0.5)")
    stacked = _stacked_copy(updates)
    n = stacked.shape[0]
    k = int(np.floor(trim_fraction * n))
    if 2 * k >= n:
        return np.median(stacked, axis=0)
    if k == 0:
        return stacked.mean(axis=0)
    stacked.sort(axis=0)
    return stacked[k : n - k].mean(axis=0)


def stacked_krum(updates, f=None):
    """``defense.krum`` over a copied stack, verbatim."""
    from repro.fl.defense import _pairwise_sq_dists

    stacked = _stacked_copy(updates)
    n = stacked.shape[0]
    f_eff = int(np.ceil(n / 5)) if f is None else int(f)
    if n - f_eff - 2 < 1:
        return np.median(stacked, axis=0)
    sq = _pairwise_sq_dists(stacked)
    np.fill_diagonal(sq, np.inf)
    neighbor_d = np.sort(sq, axis=1)[:, : n - f_eff - 2]
    scores = neighbor_d.sum(axis=1)
    return stacked[int(np.argmin(scores))].copy()


def sample_from_cdf_signed_zero_pass(self, n, cdf, gen, flatten=True, out=None):
    """``ClassConditionalGenerator.sample_from_cdf`` as shipped with the
    ``eps += 0.0`` pass that turned a ``σ·z = −0.0`` into ``+0.0``,
    verbatim: the oracle for the draw without that pass."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h, w, c = self.image_shape
    if out is None:
        out = np.empty((n, h * w * c))
    elif (
        out.shape != (n, h * w * c)
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise ValueError("out must be a C-contiguous (n, num_features) array")
    labels = cdf.searchsorted(gen.random(n), side="right")
    eps = out.reshape(n, h, w, c)
    gen.standard_normal(out=eps)
    eps *= self.noise
    eps += 0.0
    gain = gen.uniform(0.85, 1.15, size=(n, 1, 1, 1))
    bias = gen.uniform(-0.05, 0.05, size=(n, 1, 1, 1))
    base = self.prototypes[labels]  # (n, H, W, C), a fresh copy
    np.multiply(base, gain, out=base)
    base += bias
    eps += base
    np.clip(eps, 0.0, 1.0, out=eps)
    return Dataset(x=out, y=labels)


class PerRowClientDataStream:
    """``ClientDataStream.__init__`` as shipped when every client checked and
    normalised its own class vector, verbatim: the oracle for the matrix
    path of ``repro.datasets.streams.build_client_streams``."""

    def __init__(self, generator, class_probs, rng) -> None:
        probs = np.asarray(class_probs, dtype=float)
        if probs.shape != (generator.num_classes,):
            raise ValueError("class_probs shape mismatch")
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ValueError("class_probs must be a nonnegative distribution")
        self.generator = generator
        self.class_probs = probs / probs.sum()
        self._label_cdf = None  # built by the first draw
        self._rng = rng  # a Generator, or RngFactory.defer(key) until first read


def per_row_client_streams(generator, class_distributions, rng_factory) -> list:
    """``build_client_streams`` as shipped with one eager stream per row."""
    dists = np.asarray(class_distributions, dtype=float)
    if dists.ndim != 2 or dists.shape[1] != generator.num_classes:
        raise ValueError("class_distributions must be (M, num_classes)")
    return [
        PerRowClientDataStream(
            generator=generator,
            class_probs=dists[k],
            rng=rng_factory.defer(f"data.client.{k}"),
        )
        for k in range(dists.shape[0])
    ]


@dataclass(frozen=True)
class ScenarioSpec:
    """``repro.experiments.tournament.ScenarioSpec`` as shipped when every
    scenario was a set of typed override fields plus ``configure``,
    verbatim (with the matrix below): the oracle for
    ``repro.experiments.scenarios.ScenarioSpec.overrides_for``.

    One column of the tournament matrix: a named config perturbation.

    Every field with a non-``None`` value overlays the base experiment
    config; because the whole config enters the sweep-cache fingerprint,
    two scenarios never collide in the cache.  ``quick`` marks scenarios
    safe and fast enough for the ``--quick`` matrix (synchronous-engine
    only: event-driven fault scenarios can abort tiny runs through the
    participation floor).
    """

    name: str
    description: str
    iid: Optional[bool] = None
    partition: Optional[str] = None
    dirichlet_alpha: Optional[float] = None
    cost_volatility: Optional[float] = None
    availability_model: Optional[str] = None
    engine: Optional[str] = None
    aggregation: Optional[str] = None
    quorum_frac: Optional[float] = None  # quorum = max(1, frac * n)
    sim_deadline_s: Optional[float] = None
    fault_profile: Optional[str] = None
    attack: Optional[str] = None
    attack_fraction: Optional[float] = None
    defense: Optional[str] = None
    quick: bool = False

    def configure(self, base: ExperimentConfig) -> ExperimentConfig:
        """Overlay this scenario onto ``base`` (validation re-runs)."""
        cfg = base
        data = cfg.data
        if self.iid is not None:
            data = dataclasses.replace(data, iid=self.iid)
        if self.partition is not None:
            data = dataclasses.replace(data, iid=False, partition=self.partition)
        if self.dirichlet_alpha is not None:
            data = dataclasses.replace(data, dirichlet_alpha=self.dirichlet_alpha)
        population = cfg.population
        if self.cost_volatility is not None:
            population = dataclasses.replace(
                population, cost_volatility=self.cost_volatility
            )
        if self.availability_model is not None:
            population = dataclasses.replace(
                population, availability_model=self.availability_model
            )
        training = cfg.training
        if self.engine is not None:
            training = dataclasses.replace(training, engine=self.engine)
        # Sim overrides land in ONE replace: validation runs per replace,
        # and e.g. aggregation="async" is only legal once the quorum is
        # set alongside it.
        sim_changes: Dict[str, object] = {}
        if self.aggregation is not None:
            sim_changes["aggregation"] = self.aggregation
        if self.quorum_frac is not None:
            sim_changes["quorum"] = max(
                1, round(self.quorum_frac * cfg.min_participants)
            )
        if self.sim_deadline_s is not None:
            sim_changes["deadline_s"] = self.sim_deadline_s
        if self.fault_profile is not None:
            sim_changes["faults"] = self.fault_profile
        sim = dataclasses.replace(cfg.sim, **sim_changes) if sim_changes else cfg.sim
        attack = cfg.attack
        if self.attack is not None:
            attack = dataclasses.replace(attack, kind=self.attack)
        if self.attack_fraction is not None:
            attack = dataclasses.replace(attack, fraction=self.attack_fraction)
        defense = cfg.defense
        if self.defense is not None:
            defense = dataclasses.replace(defense, aggregator=self.defense)
        return cfg.replace(
            data=data,
            population=population,
            training=training,
            sim=sim,
            attack=attack,
            defense=defense,
        )


#: The scenario matrix.  Order defines report column order.
SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        "iid",
        "the paper's baseline setting: IID shards, stable prices",
        iid=True,
        quick=True,
    ),
    ScenarioSpec(
        "non-iid",
        "paper-style label-skew partition",
        iid=False,
        quick=True,
    ),
    ScenarioSpec(
        "dirichlet",
        "dirichlet(0.3) partition: heavy client heterogeneity",
        partition="dirichlet",
        dirichlet_alpha=0.3,
    ),
    ScenarioSpec(
        "volatile-prices",
        "AR(1) price innovations at 0.5: costs swing round to round",
        cost_volatility=0.5,
        quick=True,
    ),
    ScenarioSpec(
        "flat-prices",
        "frozen prices: cost signal carries no information",
        cost_volatility=0.0,
    ),
    ScenarioSpec(
        "byzantine",
        "25% sign-flip attackers behind a trimmed-mean defense",
        attack="sign-flip",
        attack_fraction=0.25,
        defense="trimmed-mean",
        quick=True,
    ),
    ScenarioSpec(
        "markov-churn",
        "markov availability: clients flap in correlated bursts",
        availability_model="markov",
        quick=True,
    ),
    ScenarioSpec(
        "flaky-uplink",
        "event-driven runtime with 30% upload failures and retries",
        engine="des",
        fault_profile="flaky-uplink",
    ),
    ScenarioSpec(
        "async-quorum",
        "asynchronous aggregation: epoch closes at the quorum",
        engine="des",
        aggregation="async",
        quorum_frac=1.0,
    ),
)
