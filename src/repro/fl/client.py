"""An FL client: holds this epoch's local data and runs the DANE solve.

A client is a row plus objects built at first touch.  What every client
shares — the solver hyper-parameters — is one :class:`LocalSolveSpec`,
built and validated once per run; the population is an index range over
it (:class:`repro.datasets.streams.LazyRows`), and client ``k``'s
:class:`FLClient` exists only once the run has read ``clients[k]``.

A client holds data only from its install to the end of its round: the
experiment loop draws D_{t,k} after selection on the round's contributors
(:meth:`FLClient.set_data`) and releases it when the round returns.  A
client the end-of-round loss sweep evaluates but that did not contribute
— an *evaluation-only* client — holds no data at all: its install
(:meth:`FLClient.defer_data`) records the sample count and feature width
the sweep buckets it by, and :meth:`FLClient.sweep_data` draws the dataset
when the sweep reaches it, into the sweep's buffer when it passes one.
Memory therefore follows the round's contributors plus what the sweep is
evaluating, not the evaluation panel or the number of clients ever drawn.

Clients share one :class:`repro.nn.models.ClassifierModel` instance (the
architecture); all state that differs between clients — data, RNG stream,
the current displacement — lives here.  Sharing the model is safe: a dense
network is evaluated at the ``w`` it is handed without touching the shared
layers (:mod:`repro.nn.models`), and on the ``Module`` path (CNNs) the
simulator executes clients sequentially and every loss/grad call re-loads
its parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.fl.convergence import estimate_local_accuracy
from repro.fl.dane import DaneWorkspace, dane_local_step
from repro.nn.models import ClassifierModel

__all__ = ["FLClient", "LocalSolveSpec"]


@dataclass(frozen=True)
class LocalSolveSpec:
    """The local-solver hyper-parameters every client of a run shares."""

    sgd_steps: int = 5
    sgd_lr: float = 0.05
    sigma1: float = 1.0
    sigma2: float = 1.0
    batch_size: int = 32
    local_solver: str = "dane"
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.sgd_steps < 1:
            raise ValueError("sgd_steps must be >= 1")
        if self.sgd_lr <= 0:
            raise ValueError("sgd_lr must be positive")
        if self.local_solver not in ("dane", "fedprox"):
            raise ValueError(f"unknown local solver {self.local_solver!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")

    @classmethod
    def from_config(cls, training) -> "LocalSolveSpec":
        """The spec of a :class:`repro.config.TrainingConfig`."""
        return cls(
            sgd_steps=training.local_sgd_steps,
            sgd_lr=training.sgd_lr,
            sigma1=training.sigma1,
            sigma2=training.sigma2,
            batch_size=training.batch_size,
            local_solver=training.local_solver,
            momentum=training.momentum,
        )


class FLClient:
    """One mobile device participating in federated training."""

    def __init__(
        self,
        client_id: int,
        model: ClassifierModel,
        rng: np.random.Generator,
        spec: LocalSolveSpec = LocalSolveSpec(),
    ) -> None:
        self.client_id = client_id
        self.model = model
        self._rng = rng  # a Generator, or an RngFactory.defer(key) source
        self.spec = spec
        self._data: Optional[Dataset] = None
        # This epoch's sample count and feature width, and an
        # evaluation-only client's not-yet-made draw (out -> Dataset).
        self._shape: Optional[Tuple[int, int]] = None
        self._draw: Optional[Callable[[Optional[np.ndarray]], Dataset]] = None

    @property
    def rng(self) -> np.random.Generator:
        """This client's stream.  A deferred source is called at every read
        and its generator never kept (the holder rule of :mod:`repro.rng`):
        the call marks the stream for the next snapshot."""
        rng = self._rng
        return rng if isinstance(rng, np.random.Generator) else rng()

    @property
    def rng_created(self) -> bool:
        """False while the stream is still pristine (deferred, never read)."""
        rng = self._rng
        return isinstance(rng, np.random.Generator) or rng.created

    # -- per-epoch data ----------------------------------------------------------

    def set_data(self, data: Dataset) -> None:
        """Install this epoch's local dataset D_{t,k}."""
        if len(data) == 0:
            raise ValueError("client data must be nonempty")
        self._data = data
        self._shape = data.x.shape
        self._draw = None

    def defer_data(
        self,
        num_samples: int,
        num_features: int,
        draw: Callable[[Optional[np.ndarray]], Dataset],
    ) -> None:
        """Install an evaluation-only client's D_{t,k} without drawing it:
        the client reports ``num_samples`` / ``num_features`` and
        ``draw(out)`` makes the dataset (features into ``out`` when it is
        not ``None``) the one time :meth:`sweep_data` asks for it."""
        if num_samples < 1:
            raise ValueError("client data must be nonempty")
        self._data = None
        self._shape = (int(num_samples), int(num_features))
        self._draw = draw

    def release_data(self) -> None:
        """Drop D_{t,k} at the end of its round; :attr:`data` raises until
        the next :meth:`set_data`."""
        self._data = None
        self._shape = None
        self._draw = None

    @property
    def data(self) -> Dataset:
        if self._data is None:
            raise RuntimeError(f"client {self.client_id} has no data this epoch")
        return self._data

    @property
    def holds_data(self) -> bool:
        """Whether D_{t,k} is drawn and held (a contributor's)."""
        return self._data is not None

    def sweep_data(self, out: Optional[np.ndarray] = None) -> Dataset:
        """D_{t,k} for the loss sweep: the held dataset, or an
        evaluation-only client's draw — features into ``out`` when given —
        made once and not kept."""
        if self._data is not None:
            return self._data
        draw = self._draw
        if draw is None:
            # Never installed, released, or already drawn this epoch: a
            # second draw would advance the stream past the round's data.
            raise RuntimeError(f"client {self.client_id} has no data this epoch")
        self._draw = None
        return draw(out)

    def _epoch_shape(self) -> Tuple[int, int]:
        if self._shape is None:
            raise RuntimeError(f"client {self.client_id} has no data this epoch")
        return self._shape

    @property
    def num_samples(self) -> int:
        return self._epoch_shape()[0]

    @property
    def num_features(self) -> int:
        return self._epoch_shape()[1]

    # -- evaluation ---------------------------------------------------------------

    def local_loss(self, w: np.ndarray) -> float:
        """F_{t,k}(w) on the full local dataset (an evaluation-only
        client's is drawn here and dropped on return)."""
        data = self.sweep_data()
        return self.model.loss(w, data.x, data.y)

    def local_grad(
        self, w: np.ndarray, with_loss: bool = False
    ) -> np.ndarray | Tuple[float, np.ndarray]:
        """∇F_{t,k}(w) on the full local dataset.

        ``with_loss=True`` returns the whole ``(F_{t,k}(w), ∇F_{t,k}(w))``
        pair — what :meth:`train_iteration` takes as ``start``.
        """
        loss, g = self.model.loss_and_grad(w, self.data.x, self.data.y)
        return (loss, g) if with_loss else g

    # -- training -------------------------------------------------------------

    def train_iteration(
        self,
        w_global: np.ndarray,
        global_grad: np.ndarray,
        target_eta: Optional[float] = None,
        start: Optional[Tuple[float, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, float, List[float]]:
        """One DANE local solve at the broadcast model.

        ``target_eta`` is the server's tolerated local accuracy η_t: the
        inner SGD stops early once the estimated accuracy reaches it
        (paper's iteration-control coupling).  ``start`` is this client's
        ``local_grad(w_global, with_loss=True)`` when the caller has just
        computed it; ``None`` evaluates it here.

        Returns ``(d, η̂, trajectory)``: the model difference to upload, the
        estimated local convergence accuracy, and the full-batch surrogate
        trajectory (for diagnostics/tests).
        """
        spec = self.spec
        if start is None:
            start = self.model.loss_and_grad(w_global, self.data.x, self.data.y)
        if spec.local_solver == "dane":
            ws = DaneWorkspace(
                w_global=np.asarray(w_global, dtype=float),
                local_grad_at_w=start[1],
                global_grad=np.asarray(global_grad, dtype=float),
                sigma1=spec.sigma1,
                sigma2=spec.sigma2,
            )
        else:
            # FedProx (paper's related work [15]): the pure proximal
            # objective F_k(w + d) + σ1/2 ‖d‖² — DANE with the
            # gradient-correction linear term removed.
            zeros = np.zeros_like(np.asarray(w_global, dtype=float))
            ws = DaneWorkspace(
                w_global=np.asarray(w_global, dtype=float),
                local_grad_at_w=zeros,
                global_grad=zeros,
                sigma1=spec.sigma1,
                sigma2=0.0,
            )
        d, trajectory = dane_local_step(
            self.model,
            ws,
            self.data,
            max_steps=spec.sgd_steps,
            lr=spec.sgd_lr,
            batch_size=spec.batch_size,
            # Only a subsampling solve draws: a full-batch client's deferred
            # stream is never created.
            rng=self.rng if spec.batch_size < self.num_samples else None,
            target_eta=target_eta,
            momentum=spec.momentum,
            start=start,
        )
        eta_hat = estimate_local_accuracy(trajectory)
        return d, eta_hat, trajectory
