"""Hierarchical edge aggregation (related work [2]) — a latency study.

Places edge servers by k-means over the client layout and compares the
epoch latency of flat (client → macro cell) vs hierarchical
(client → edge → cloud) aggregation for the same participant sets.

Usage::

    python examples/hierarchical_edge.py
"""

# ``repro`` before numpy: importing it sizes the BLAS pool to one thread,
# which only works before numpy loads.
from repro.config import NetworkConfig, PopulationConfig
from repro.env import build_population
from repro.fl.hierarchy import cluster_clients, hierarchical_epoch_latency
from repro.net import ChannelModel, achievable_rate, transmission_latency
from repro.rng import RngFactory

import numpy as np


def main() -> None:
    root = RngFactory(8)
    cfg = NetworkConfig()
    pop = build_population(
        PopulationConfig(num_clients=60), root.get("pop"),
        cell_radius_m=cfg.cell_radius_m,
    )
    tau_loc = np.full(60, 0.002)
    chan = ChannelModel(pop.distances_m(), cfg, root.get("chan"))
    snr = chan.mean_state().snr_per_hz()
    rng = root.get("sel")

    print("clusters   flat epoch (ms)   hierarchical epoch (ms)   speedup")
    for k in (2, 4, 8):
        clustering = cluster_clients(pop.positions_m, k, root.fresh(f"km{k}"))
        flat_vals, hier_vals = [], []
        for _ in range(30):
            sel = np.zeros(60, bool)
            sel[rng.choice(60, size=20, replace=False)] = True
            rates = np.asarray(achievable_rate(cfg.bandwidth_hz / 20, snr))
            tau_cm = np.asarray(transmission_latency(cfg.upload_bits, rates))
            flat_vals.append(float(np.max((tau_loc + tau_cm)[sel])))
            hier_vals.append(
                hierarchical_epoch_latency(
                    clustering, pop.positions_m, sel, cfg, tau_loc
                )
            )
        flat = float(np.mean(flat_vals))
        hier = float(np.mean(hier_vals))
        print(
            f"{k:8d}   {flat * 1e3:15.2f}   {hier * 1e3:23.2f}   {flat / hier:7.1f}x"
        )
    print()
    print("Shorter radio links plus per-cluster band reuse cut the epoch")
    print("latency; more edge servers help until clusters get so small the")
    print("backhaul dominates.")


if __name__ == "__main__":
    main()
