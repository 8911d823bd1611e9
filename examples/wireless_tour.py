"""A tour of the wireless edge substrate (paper Sec. 3.2 / 6.1).

Walks through the channel/latency model standalone — path loss, shadow
fading, FDMA rate vs bandwidth share, and how the epoch latency emerges
from the slowest selected client — useful for understanding why client
selection matters before touching any learning code.

Usage::

    python examples/wireless_tour.py
"""

# ``repro`` before numpy: importing it sizes the BLAS pool to one thread,
# which only works before numpy loads.
from repro.config import NetworkConfig, PopulationConfig
from repro.env import build_population
from repro.net import (
    ChannelModel,
    achievable_rate,
    allocate_bandwidth,
    compute_latency,
    epoch_latency,
    transmission_latency,
)
from repro.net.pathloss import pathloss_db
from repro.rng import RngFactory

import numpy as np


def main() -> None:
    rng = RngFactory(2)
    net = NetworkConfig()
    pop_cfg = PopulationConfig(num_clients=12)
    pop = build_population(pop_cfg, rng.get("pop"), cell_radius_m=net.cell_radius_m)
    dist = pop.distances_m()

    print("1) Path loss (3GPP urban macro: 128.1 + 37.6 log10 d_km)")
    for d in (50, 150, 500):
        print(f"   d={d:4d} m -> {pathloss_db(float(d)):6.1f} dB")
    print()

    channel = ChannelModel(dist, net, rng.get("chan"))
    state = channel.sample()
    snr = state.snr_per_hz()
    print("2) Per-client SNR density (path loss + 8 dB AR(1) shadowing)")
    order = np.argsort(dist)
    for k in order[:3].tolist() + order[-3:].tolist():
        print(f"   client {k:2d}: d={dist[k]:5.1f} m  snr/Hz={snr[k]:9.3g}")
    print()

    print("3) FDMA rate vs bandwidth share (closest client)")
    best = int(order[0])
    for nshare in (1, 5, 20):
        b = net.bandwidth_hz / nshare
        r = achievable_rate(b, snr[best])
        print(f"   share B/{nshare:2d} = {b/1e6:5.1f} MHz -> {float(r)/1e6:6.2f} Mbit/s")
    print()

    print("4) Epoch latency = slowest selected client")
    counts = np.full(12, 40)
    bits = counts * pop.bits_per_sample
    tau_loc = np.asarray(
        compute_latency(pop.cycles_per_bit, bits, pop.cpu_freq_hz)
    )
    # Rank clients by their realized per-iteration latency at an equal
    # 5-way share (what a selector can learn from feedback).
    share_rates = np.asarray(achievable_rate(net.bandwidth_hz / 5.0, snr))
    tau = tau_loc + np.asarray(transmission_latency(net.upload_bits, share_rates))
    by_speed = np.argsort(tau)

    def epoch(mask: np.ndarray, policy: str) -> float:
        bw = allocate_bandwidth(
            state, mask, net.bandwidth_hz, net.upload_bits, policy=policy
        )
        rates = np.asarray(achievable_rate(bw, snr))
        tau_cm = np.asarray(transmission_latency(net.upload_bits, rates))
        return epoch_latency(tau_loc + tau_cm, mask)

    fast = np.zeros(12, bool)
    fast[by_speed[:5]] = True
    slow = np.zeros(12, bool)
    slow[by_speed[-5:]] = True
    print(f"   fastest-5, equal       split -> epoch latency {epoch(fast, 'equal')*1e3:8.2f} ms")
    print(f"   fastest-5, min_latency split -> epoch latency {epoch(fast, 'min_latency')*1e3:8.2f} ms")
    print(f"   slowest-5, equal       split -> epoch latency {epoch(slow, 'equal')*1e3:8.2f} ms")
    print()
    print("Selecting fast clients changes epoch latency by orders of")
    print("magnitude — the leverage FedL's online learner exploits.  (Note")
    print("that 'fast' is not simply 'near': shadowing reshuffles the")
    print("ranking, which is why selection must be learned online.)")


if __name__ == "__main__":
    main()
