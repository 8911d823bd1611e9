"""Property-based invariants for every member of the strategy registry.

Four laws, each asserted against the live ``STRATEGY_REGISTRY`` so new
members are covered the moment they register:

1. **Containment & floor** — every selection is a subset of the available
   clients and, whenever at least ``n`` clients are available, selects at
   least ``n`` of them (and never zero).
2. **Budget** — strategies that declare ``budget_aware`` never spend more
   than the remaining budget whenever the ``n`` cheapest available
   clients fit it (the strict per-epoch affordability contract).
3. **Permutation equivariance** — relabeling the clients relabels the
   selection identically for every non-randomized strategy.  Asserted
   after one observation round: cold-start score ties (all clients
   equally unknown) break by index, which is the one place labels may
   legitimately leak in.
4. **Determinism** — two instances built from the same seed, driven
   through the same episode, make identical decisions.  Holds for every
   member, randomized or not.
5. **0-lookahead** — two contexts that differ only in this epoch's
   realised latencies (``ctx.tau_oracle``) give the same decision, for
   every member that does not declare ``needs_oracle``; one that does
   must read them.

Tie-breaking is the classic way such tests go flaky, so the generated
instances are tie-free by construction: local losses come from distinct
powers of two (every subset sum is unique, so greedy densities and
knapsack optima are unique), costs from distinct odd primes (no two
loss/cost densities coincide), and latencies from distinct primes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.strategies.base import EpochContext, RoundFeedback
from repro.experiments.scenarios import experiment_config
from repro.strategies import STRATEGY_REGISTRY, build_strategy

ALL_STRATEGIES = sorted(STRATEGY_REGISTRY)
BUDGET_AWARE = sorted(n for n, s in STRATEGY_REGISTRY.items() if s.budget_aware)
NON_RANDOMIZED = sorted(n for n, s in STRATEGY_REGISTRY.items() if not s.randomized)
ORACLES = sorted(n for n, s in STRATEGY_REGISTRY.items() if s.needs_oracle)
HONEST = sorted(n for n, s in STRATEGY_REGISTRY.items() if not s.needs_oracle)

# Tie-free value pools (see module docstring).
LOSS_POOL = np.array([2.0 ** -(k + 1) for k in range(16)])
COST_POOL = np.array(
    [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59], dtype=float
) / 10.0
TAU_POOL = np.array(
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
     41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89], dtype=float
) / 20.0
ETA_POOL = np.array([(k + 1) / 17.0 for k in range(16)])

PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def episodes(draw, min_budget_factor=0.5):
    """A two-epoch episode: tie-free prices/latencies/losses, per-epoch
    availability with at least ``n`` clients up, and a budget scaled off
    the cheapest feasible selection by ``factor`` (``>= 1`` guarantees
    the budget-aware precondition holds)."""
    m = draw(st.integers(min_value=4, max_value=8))
    n = draw(st.integers(min_value=1, max_value=min(3, m - 1)))
    cost_perm = list(draw(st.permutations(range(16))))
    loss_perm = list(draw(st.permutations(range(16))))
    tau_perm = list(draw(st.permutations(range(24))))
    eta_perm = list(draw(st.permutations(range(16))))
    factor = draw(
        st.floats(min_value=min_budget_factor, max_value=4.0,
                  allow_nan=False, allow_infinity=False)
    )
    avail = []
    for _ in range(2):
        order = list(draw(st.permutations(range(m))))
        up = draw(st.integers(min_value=n, max_value=m))
        mask = np.zeros(m, dtype=bool)
        mask[order[:up]] = True
        avail.append(mask)
    relabel = np.array(list(draw(st.permutations(range(m)))))
    return {
        "m": m,
        "n": n,
        "factor": factor,
        "avail": avail,
        "costs": [COST_POOL[cost_perm[:m]], COST_POOL[cost_perm[8:8 + m]]],
        # Three latency vectors: tau_last at t=0, realized at t=0 (= tau_last
        # at t=1), realized at t=1.  tau_oracle is the next realized vector.
        "taus": [
            TAU_POOL[tau_perm[:m]],
            TAU_POOL[tau_perm[8:8 + m]],
            TAU_POOL[tau_perm[16:16 + m]],
        ],
        "losses": [LOSS_POOL[loss_perm[:m]], LOSS_POOL[loss_perm[8:8 + m]]],
        "etas": [ETA_POOL[eta_perm[:m]], ETA_POOL[eta_perm[8:8 + m]]],
        "relabel": relabel,
    }


def build(name, ep, seed=0):
    cfg = experiment_config(
        dataset="fmnist",
        iid=True,
        budget=100.0,
        seed=seed,
        num_clients=ep["m"],
        min_participants=ep["n"],
        max_epochs=3,
    )
    return build_strategy(name, cfg, np.random.default_rng(seed))


def cheapest_n_cost(costs, avail, n):
    return float(np.sort(costs[avail])[:n].sum())


def play(policy, ep, perm=None, tau_now=None):
    """Drive ``policy`` through the episode (optionally relabeled by
    ``perm``: every client-indexed array becomes ``arr[perm]``) and return
    one record per epoch: (selected mask, iterations, spend, budget).

    ``tau_now[t]``, when given, replaces epoch ``t``'s ``ctx.tau_oracle``
    (and only that: the feedback still reports the episode's latencies)."""
    m, n = ep["m"], ep["n"]
    p = np.arange(m) if perm is None else np.asarray(perm)
    taus = [t[p] for t in ep["taus"]]
    records = []
    prev_losses = np.full(m, np.nan)  # nothing observed before t=0
    for t in range(2):
        avail = ep["avail"][t][p]
        costs = ep["costs"][t][p]
        budget = ep["factor"] * cheapest_n_cost(costs, avail, n)
        ctx = EpochContext(
            t=t,
            available=avail,
            costs=costs,
            remaining_budget=budget,
            min_participants=n,
            tau_last=taus[t],
            local_losses=prev_losses,
            tau_oracle=taus[t + 1] if tau_now is None else tau_now[t][p],
        )
        decision = policy.select(ctx)
        sel = decision.selected
        spend = float(costs[sel].sum())
        records.append((sel.copy(), int(decision.iterations), spend, budget))
        observed = ep["losses"][t][p]  # every client reports this round
        policy.update(RoundFeedback(
            t=t,
            selected=sel,
            tau_realized=taus[t + 1],
            local_etas=np.where(sel, ep["etas"][t][p], np.nan),
            local_losses=observed,
            population_loss=0.0,
            cost_spent=spend,
            epoch_latency=float(decision.iterations * taus[t + 1][sel].max()),
        ))
        prev_losses = observed
    return records


class TestContainmentAndFloor:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @PROPERTY_SETTINGS
    @given(ep=episodes())
    def test_selection_within_available_and_meets_floor(self, name, ep):
        for t, (sel, iters, _, _) in enumerate(play(build(name, ep), ep)):
            avail = ep["avail"][t]
            assert not np.any(sel & ~avail), f"{name} picked unavailable at t={t}"
            assert int(sel.sum()) >= ep["n"], f"{name} under floor at t={t}"
            assert iters >= 1


class TestBudget:
    @pytest.mark.parametrize("name", BUDGET_AWARE)
    @PROPERTY_SETTINGS
    @given(ep=episodes(min_budget_factor=1.0))
    def test_spend_within_budget_when_cheapest_n_affordable(self, name, ep):
        # factor >= 1 means the n cheapest available clients always fit
        # the remaining budget — exactly the declared precondition.
        for t, (_, _, spend, budget) in enumerate(play(build(name, ep), ep)):
            assert spend <= budget + 1e-9, (
                f"{name} overspent at t={t}: {spend} > {budget}"
            )


class TestPermutationEquivariance:
    @pytest.mark.parametrize("name", NON_RANDOMIZED)
    @PROPERTY_SETTINGS
    @given(ep=episodes())
    def test_relabeling_clients_relabels_the_selection(self, name, ep):
        p = ep["relabel"]
        base = play(build(name, ep), ep)
        relabeled = play(build(name, ep), ep, perm=p)
        # Epoch 1: one full observation round has passed, so score-based
        # members have tie-free state; cold-start (t=0) index tie-breaks
        # are exempt by design.
        sel_base, iters_base, _, _ = base[1]
        sel_perm, iters_perm, _, _ = relabeled[1]
        assert np.array_equal(sel_perm, sel_base[p]), (
            f"{name} is not permutation-equivariant"
        )
        assert iters_perm == iters_base


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @PROPERTY_SETTINGS
    @given(ep=episodes(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_identical_seed_identical_decisions(self, name, ep, seed):
        runs = [play(build(name, ep, seed=seed), ep) for _ in range(2)]
        for (sel_a, it_a, sp_a, _), (sel_b, it_b, sp_b, _) in zip(*runs):
            assert np.array_equal(sel_a, sel_b)
            assert it_a == it_b
            assert sp_a == sp_b


class DecisionLog:
    """Forwards to a policy and keeps every :class:`Decision` it made."""

    def __init__(self, inner):
        self.inner = inner
        self.decisions = []

    def select(self, ctx):
        decision = self.inner.select(ctx)
        self.decisions.append(decision)
        return decision

    def update(self, feedback):
        self.inner.update(feedback)


def same_decision(a, b):
    return (
        np.array_equal(a.selected, b.selected)
        and a.iterations == b.iterations
        and np.array_equal(a.rho, b.rho, equal_nan=True)
        and (a.fractional_x is None) == (b.fractional_x is None)
        and (a.fractional_x is None
             or np.array_equal(a.fractional_x, b.fractional_x, equal_nan=True))
        and a.quorum == b.quorum
    )


class TestZeroLookahead:
    @pytest.mark.parametrize("name", HONEST)
    @PROPERTY_SETTINGS
    @given(ep=episodes(), scale=st.sampled_from([0.25, 3.0]))
    def test_this_epochs_realised_tau_moves_no_honest_decision(self, name, ep, scale):
        # The other world's latencies: reversed (the ranking flips) and
        # rescaled, so any read of them shows.
        other = [ep["taus"][t + 1][::-1] * scale for t in range(2)]
        logs = [DecisionLog(build(name, ep)) for _ in range(2)]
        play(logs[0], ep)
        play(logs[1], ep, tau_now=other)
        for t, (a, b) in enumerate(zip(*(log.decisions for log in logs))):
            assert same_decision(a, b), f"{name} read this epoch's τ at t={t}"


class TestOracleLooksAhead:
    @pytest.mark.parametrize("name", ORACLES)
    def test_needs_oracle_strategies_read_this_epochs_tau(self, name):
        m, n = 6, 2
        ep = {"m": m, "n": n}
        fast_first = np.arange(1.0, m + 1)
        picks = []
        for tau in (fast_first, fast_first[::-1]):
            ctx = EpochContext(
                t=0,
                available=np.ones(m, dtype=bool),
                costs=np.ones(m),
                remaining_budget=100.0,
                min_participants=n,
                tau_last=np.ones(m),
                local_losses=np.full(m, np.nan),
                tau_oracle=tau,
            )
            picks.append(build(name, ep).select(ctx))
        assert not same_decision(*picks)
