"""Wireless edge-network substrate (paper Sec. 3.2 and 6.1).

Implements the exact channel/latency model the paper's simulator uses:

* path loss ``128.1 + 37.6 log10(d_km)`` dB with 8 dB log-normal shadowing
  (:mod:`repro.net.pathloss`, :mod:`repro.net.channel`),
* FDMA uplink rate ``r = b log2(1 + h p / (N0 b))`` at an equal share
  ``b = B / num_sharing`` of a ``B = 20`` MHz band (:mod:`repro.net.fdma`),
* per-client latency ``d_k(t) = l_t (τ_loc + τ_cm)`` with
  ``τ_loc = e_k D_{t,k} / π_k`` and ``τ_cm = s / r``
  (:mod:`repro.net.latency`).
"""

from repro.net.pathloss import pathloss_db, db_to_linear, dbm_to_watt
from repro.net.channel import ChannelModel, ChannelState
from repro.net.fdma import achievable_rate
from repro.net.latency import (
    compute_latency,
    transmission_latency,
    client_latency,
    epoch_latency,
)

__all__ = [
    "pathloss_db",
    "db_to_linear",
    "dbm_to_watt",
    "ChannelModel",
    "ChannelState",
    "achievable_rate",
    "compute_latency",
    "transmission_latency",
    "client_latency",
    "epoch_latency",
]
