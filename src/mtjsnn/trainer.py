"""Spike-timing gradient descent over full network simulations.

The loss per row is L = (t_actual - t_desired)^2 / 2 on the output
neuron's first spike time.  Weight sensitivities dt/dw are obtained by
central finite differences of two complete simulations per weight, so the
update Delta w = -eta * (dL/dt) * (dt/dw) is exact gradient descent with
respect to the simulator.  Where the output is silent on one side of the
perturbation (the firing boundary), a one-sided difference against the
unperturbed spike time is used, and silent on both sides gives 0.  Updates
are batched over all dataset rows and applied once per epoch.  Each epoch
is one batched network simulation of every dataset row, each with its own
source schedules, times the current weights and the 2E weight vectors
perturbed by +-fd_epsilon.  Only the output's first onset is read, and the
simulation is causal, so after epoch 0 the batch runs on a prefix of the
grid that ends 0.1 ns past the latest first onset of the epoch before.  At
most one more batch follows on the full grid: the batch rows whose output
has no onset inside the prefix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError, InvalidInputError, NumericalFailureError
from .network import Network, SimConfig, _simulate, validate_topology

# ns past the latest output onset of the last epoch that the next prefix
# grid runs to; a batch row that then fires later, or not at all, falls
# back to the full grid
_PREFIX_MARGIN = 0.1


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.01                 # learning rate
    fd_epsilon: float = 1e-3          # weight perturbation for finite differences
    max_epochs: int = 10000
    tol: float = 0.05                 # ns, convergence band around targets

    def __post_init__(self):
        if not (self.eta >= 0 and math.isfinite(self.eta)):
            raise InvalidInputError("eta must be >= 0 and finite", key="eta")
        if not (self.fd_epsilon > 0 and math.isfinite(self.fd_epsilon)):
            raise InvalidInputError("fd_epsilon must be > 0 and finite", key="fd_epsilon")
        if not isinstance(self.max_epochs, numbers.Integral):
            raise InvalidInputError("max_epochs must be an integer", key="max_epochs")
        if self.max_epochs < 1:
            raise InvalidInputError("max_epochs must be >= 1", key="max_epochs")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise InvalidInputError("tol must be > 0 and finite", key="tol")


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)          # ns^2 per epoch
    output_times: list[list[Optional[float]]] = field(default_factory=list)
    weights: list[np.ndarray] = field(default_factory=list)
    converged: bool = False
    epochs: int = 0

    def to_csv(self, path) -> None:
        n_rows = len(self.output_times[0]) if self.output_times else 0
        cols = ",".join(f"t_row{k + 1}" for k in range(n_rows))
        with open(path, "w") as fh:
            fh.write(f"epoch,total_loss_ns2,{cols}\n")
            for e, (loss, times) in enumerate(zip(self.losses, self.output_times)):
                vals = ",".join("" if t is None else repr(float(t)) for t in times)
                fh.write(f"{e},{repr(float(loss))},{vals}\n")


def loss(t_actual: float, t_desired: float) -> float:
    """Half squared timing error in ns^2."""
    if not (math.isfinite(t_actual) and math.isfinite(t_desired)):
        raise InvalidInputError("spike times must be finite")
    diff = t_actual - t_desired   # inf where the subtraction overflows
    try:   # float ** raises where * returns inf
        if math.isfinite(diff):
            return 0.5 * diff ** 2
    except OverflowError:
        pass
    raise NumericalFailureError("loss overflowed the float range")


def loss_gradient_time(t_actual: float, t_desired: float) -> float:
    """Analytic dL/dt of the half squared error."""
    if not (math.isfinite(t_actual) and math.isfinite(t_desired)):
        raise InvalidInputError("spike times must be finite")
    return t_actual - t_desired


def weight_update(grad_time: float, jacobian: float, eta: float) -> float:
    """Delta w = -eta * (dL/dt) * (dt/dw)."""
    if not (math.isfinite(grad_time) and math.isfinite(jacobian) and math.isfinite(eta)):
        raise InvalidInputError("inputs must be finite")
    return -eta * grad_time * jacobian


def _fd_slope(
    t_plus: Optional[float], t_minus: Optional[float], t_base: Optional[float], eps: float
) -> float:
    """The FD rule: central difference; one-sided against ``t_base`` when
    one side is silent (the firing boundary); 0 when both are silent."""
    if t_plus is not None and t_minus is not None:
        return (t_plus - t_minus) / (2.0 * eps)
    if t_plus is None and t_minus is None:
        return 0.0
    if t_plus is not None:
        return (t_plus - t_base) / eps
    return (t_base - t_minus) / eps


def train(
    net: Network,
    dataset: list[tuple[dict[str, list[float]], float]],
    config: TrainConfig,
    sim: Optional[SimConfig] = None,
    output_id: str = "o1",
) -> tuple[Network, TrainHistory]:
    """Batch gradient descent on spike timing until all rows hit their targets.

    Each epoch sums the per-row, per-edge updates and applies them once, so
    the result is independent of row ordering.  Stops when every row's
    output time is within ``config.tol`` of its target, or at
    ``config.max_epochs``.  A row whose output stays silent is scored as a
    spike at ``sim.horizon``.  Aborts if the total loss exceeds 1000x its
    initial value.  Every batch row of an epoch runs on the prefix grid,
    and only the rows whose output has no onset there rerun on the full
    grid.
    """
    sim = sim or SimConfig()
    violations = validate_topology(net)
    if violations:
        raise InvalidInputError("invalid network: " + "; ".join(violations))
    if not dataset:
        raise InvalidInputError("dataset must be non-empty")
    for k, (_, t_des) in enumerate(dataset):
        if not math.isfinite(t_des):
            raise InvalidInputError(f"dataset row {k}: target must be finite")
    if output_id not in {n.id for n in net.neurons} | {s.id for s in net.sources}:
        raise InvalidInputError(f"unknown id {output_id!r}")

    history = TrainHistory()
    weights = net.weight_vector()
    n_edges = weights.size
    edges = np.arange(n_edges)
    n_fd = 2 * n_edges + 1
    initial_loss: Optional[float] = None
    # batch row k * n_fd + j holds dataset row k and weight vector j;
    # _simulate takes the weights from the batch, not from the network, and
    # in lean mode computes only the onsets and the voltages synapses read
    schedules = [stimulus for stimulus, _ in dataset for _ in range(n_fd)]
    # the grid steps the next epoch's batch simulates first, None for all
    prefix: Optional[int] = None

    for epoch in range(config.max_epochs):
        # per dataset row, row 0 holds the current weights, rows 2j + 1 and
        # 2j + 2 hold w + eps*e_j and w - eps*e_j
        fd = np.repeat(weights[None, :], n_fd, axis=0)
        fd[2 * edges + 1, edges] += config.fd_epsilon
        fd[2 * edges + 2, edges] -= config.fd_epsilon
        batch = np.tile(fd, (len(dataset), 1))
        t_rows: list[Optional[float]] = [None] * len(batch)   # output's first onset
        # every batch row on the prefix grid, then those silent there on the
        # full grid
        rows, steps = list(range(len(batch))), prefix
        while rows:
            _, _, onsets = _simulate(net, batch[rows], sim, steps,
                                     [schedules[b] for b in rows], lean=True)
            for b, row in zip(rows, onsets[output_id]):
                t_rows[b] = min(row) if row else None
            rows = [b for b in rows if t_rows[b] is None] if steps is not None else []
            steps = None
        t_out = [t_rows[k * n_fd : (k + 1) * n_fd] for k in range(len(dataset))]
        fired = [t_b for t_b in t_rows if t_b is not None]
        # compared as a float first: a far onset's end may not fit an int
        end = (max(fired) + _PREFIX_MARGIN) / sim.dt if fired else math.inf
        prefix = math.ceil(end) if end <= sim.steps - 1 else None
        times = [sim.horizon if t[0] is None else t[0] for t in t_out]
        total = sum(loss(t, t_des) for t, (_, t_des) in zip(times, dataset))

        history.losses.append(total)
        history.output_times.append([t[0] for t in t_out])
        history.weights.append(weights.copy())
        history.epochs = epoch + 1

        if initial_loss is None:
            initial_loss = total
        elif initial_loss > 0 and total > 1000.0 * initial_loss:
            raise DivergenceError(
                f"loss {total:.3g} exceeds 1000x initial {initial_loss:.3g} at epoch {epoch}"
            )

        if all(
            t[0] is not None and abs(t[0] - t_des) <= config.tol
            for t, (_, t_des) in zip(t_out, dataset)
        ):
            history.converged = True
            return net.with_weights(weights), history

        delta = np.zeros(n_edges)
        for t, t_act, (_, t_des) in zip(t_out, times, dataset):
            grad = loss_gradient_time(t_act, t_des)
            for j in range(n_edges):
                jac = _fd_slope(t[2 * j + 1], t[2 * j + 2], t_act, config.fd_epsilon)
                delta[j] += weight_update(grad, jac, config.eta)
        weights = weights + delta

    return net.with_weights(weights), history
