"""Desk-scale end-to-end training of a tiny network with gated
normalization layers on synthetic data.

The model is a stack of 1x1 channel-mixing convolutions, each followed by
a normalization layer with learnable gates and a ReLU, then global average
pooling and a linear classifier.  It exists to demonstrate that the gate
ratios converge to one-hot selections under the linear radius schedule and
to produce per-step trajectory logs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (InvalidInputError, TrainingFailedError, check_array, check_integer,
                     check_real)
from .layer import (GateParams, SsnParams, select_normalizer, ssn_backward, ssn_forward,
                    validate_omega)
from .simplex import RadiusSchedule, circumradius, inradius


@dataclass
class ToyModelConfig:
    layer_widths: list[int] = field(default_factory=lambda: [8, 8, 8, 8])
    ssn_layer_count: int = 4
    omega: tuple[str, ...] = ("IN", "BN", "LN")
    batch_size: int = 40
    channels: int = 3
    height: int = 8
    width: int = 8
    seed: int = 0
    n_classes: int = 4
    gn_groups: int = 2

    def __post_init__(self):
        validate_omega(self.omega)
        if not isinstance(self.layer_widths, (list, tuple)):
            raise InvalidInputError(f"layer_widths must be a list, got {self.layer_widths!r}")
        for width in self.layer_widths:
            check_integer("layer_widths", width, 1)
        check_integer("ssn_layer_count", self.ssn_layer_count, 1)
        if self.ssn_layer_count != len(self.layer_widths):
            raise InvalidInputError("ssn_layer_count must match len(layer_widths)")
        for name in ("batch_size", "channels", "height", "width"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)
        check_integer("n_classes", self.n_classes)
        gn = "GN" in self.omega
        check_integer("gn_groups", self.gn_groups, 1 if gn else None)
        if gn and any(w % self.gn_groups for w in self.layer_widths):
            raise InvalidInputError(
                f"gn_groups must divide every layer width, got {self.gn_groups}")


@dataclass
class OptimizerConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    z_lr_ratio: float = 0.1
    z_init: float = 1.0
    epochs: int = 20
    # None is the linear ramp ((0, 0), (total steps, 1)).
    schedule: RadiusSchedule | None = None

    def __post_init__(self):
        check_integer("epochs", self.epochs, 1)
        check_real("lr", self.lr, 0, strict=True)
        check_real("weight_decay", self.weight_decay, 0)
        check_real("z_lr_ratio", self.z_lr_ratio, 0)
        check_real("z_init", self.z_init)
        check_real("momentum", self.momentum, 0)
        if self.momentum >= 1.0:
            raise InvalidInputError(f"momentum must be < 1, got {self.momentum!r}")
        if self.schedule is not None and not isinstance(self.schedule, RadiusSchedule):
            raise InvalidInputError(
                f"schedule must be None or a RadiusSchedule, got {self.schedule!r}")


@dataclass(frozen=True)
class LayerRecord:
    p: tuple
    pp: tuple
    frozen_mean: bool
    frozen_var: bool
    stage: str
    z_grad_mean: tuple
    z_grad_var: tuple


@dataclass(frozen=True)
class StepRecord:
    step: int
    r: float
    loss: float
    layers: tuple[LayerRecord, ...]


@dataclass
class TrajectoryLog:
    omega: tuple[str, ...]
    layer_count: int
    rows: list[StepRecord]
    final_accuracy: float
    # The trained net; its BN running statistics come from the final forward.
    net: _ToyNet

    def to_csv(self) -> str:
        """The per-step log as CSV text, lines ending in CRLF; the caller
        writes it."""
        header = ["step", "r", "loss"]
        for i in range(1, self.layer_count + 1):
            header += [f"L{i}_p_{n}" for n in self.omega]
            header += [f"L{i}_pp_{n}" for n in self.omega]
            header += [f"L{i}_frozen_mean", f"L{i}_frozen_var", f"L{i}_stage"]
        lines = [",".join(header)]
        for row in self.rows:
            vals = [str(row.step), f"{row.r:.17g}", f"{row.loss:.17g}"]
            for lr_ in row.layers:
                vals += [f"{v:.17g}" for v in lr_.p]
                vals += [f"{v:.17g}" for v in lr_.pp]
                vals += [str(int(lr_.frozen_mean)), str(int(lr_.frozen_var)), lr_.stage]
            lines.append(",".join(vals))
        return "\r\n".join(lines) + "\r\n"


def make_synthetic_dataset(seed: int, n_samples: int, dims: tuple[int, int, int],
                           n_classes: int, separation: float = 2.0,
                           noise: float = 1.0):
    """Reproducible Gaussian-cluster classification data.

    Labels cycle through the classes so every class is populated; identical
    seeds give identical bytes."""
    check_integer("seed", seed, 0)
    check_integer("n_classes", n_classes, 2)
    if check_integer("n_samples", n_samples) < n_classes:
        raise InvalidInputError(f"n_samples must be >= n_classes ({n_classes}) for one "
                                f"sample per class, got {n_samples}")
    for dim in dims:
        check_integer("dims", dim, 1)
    check_real("separation", separation)
    check_real("noise", noise)
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(n_classes, *dims)) * separation
    labels = np.arange(n_samples) % n_classes
    x = means[labels] + noise * rng.normal(size=(n_samples, *dims))
    return x, labels


def _flat(a: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> (N, C, H*W), a view when ``a`` is contiguous."""
    return a.reshape(a.shape[0], a.shape[1], -1)


@dataclass
class _Param:
    """One trained array and its SGD state.  Gate logits carry their gate
    and the name of the flag that stops their updates once set."""

    value: np.ndarray
    lr: float
    weight_decay: float
    frozen: tuple[GateParams, str] | None = None

    def __post_init__(self):
        self.velocity = np.zeros_like(self.value)


class _ToyNet:
    """Hand-written forward/backward for the toy architecture.  ``params``
    holds every trained array in the order of ``loss_and_grads``'s
    gradients: head_w, head_b, then per layer mix, gamma, beta, z_mean, z_var."""

    def __init__(self, cfg: ToyModelConfig, opt: OptimizerConfig, rng):
        self.cfg = cfg
        self.omega = cfg.omega
        k = len(cfg.omega)
        widths = [cfg.channels] + list(cfg.layer_widths)
        self.mix = [rng.normal(size=(widths[i + 1], widths[i])) *
                    math.sqrt(2.0 / widths[i]) for i in range(len(cfg.layer_widths))]
        self.ssn = [SsnParams.init(w_out, k, z_init=opt.z_init)
                    for w_out in cfg.layer_widths]
        self.head_w = rng.normal(size=(cfg.layer_widths[-1], cfg.n_classes)) * \
            math.sqrt(1.0 / cfg.layer_widths[-1])
        self.head_b = np.zeros(cfg.n_classes)
        lr, wd = opt.lr, opt.weight_decay
        z_lr = opt.lr * opt.z_lr_ratio
        self.params = [_Param(self.head_w, lr, wd), _Param(self.head_b, lr, wd)]
        for mix_w, p in zip(self.mix, self.ssn):
            self.params += [_Param(mix_w, lr, wd), _Param(p.gamma, lr, wd),
                            _Param(p.beta, lr, wd),
                            _Param(p.gate.z_mean, z_lr, 0.0, (p.gate, "frozen_mean")),
                            _Param(p.gate.z_var, z_lr, 0.0, (p.gate, "frozen_var"))]

    def forward(self, x, r):
        caches = []
        h = x
        for mix_w, params in zip(self.mix, self.ssn):
            # The 1x1 convolution as one (O, C) @ (C, H*W) product per sample.
            pre = (mix_w @ _flat(h)).reshape(h.shape[0], -1, *h.shape[2:])
            y, cache = ssn_forward(pre, params, r, self.omega, self.cfg.gn_groups)
            # The ReLU in place: its output is positive exactly where y was,
            # so it serves the backward as the mask too.
            np.maximum(y, 0.0, out=y)
            caches.append((h, cache, y))
            h = y
        pooled = h.mean(axis=(2, 3))
        logits = pooled @ self.head_w + self.head_b
        return logits, (caches, h, pooled)

    def loss_and_grads(self, x, labels, r):
        """The loss, the gradients in ``params`` order, and each gated
        layer's forward cache and gradients."""
        logits, (caches, feat, pooled) = self.forward(x, r)
        n = x.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = -log_probs[np.arange(n), labels].mean()
        probs = np.exp(log_probs)
        g_logits = probs.copy()
        g_logits[np.arange(n), labels] -= 1.0
        g_logits /= n

        g_pooled = g_logits @ self.head_w.T
        h, w = feat.shape[2:]
        g_h = np.broadcast_to(g_pooled[:, :, None, None] / (h * w), feat.shape)
        grads = [pooled.T @ g_logits, g_logits.sum(axis=0)]
        layers = []
        # The backward runs from the last layer down, so each layer's
        # entries go in front of those of the layers above it.
        for (inp, cache, y), mix_w in zip(reversed(caches), reversed(self.mix)):
            g_y = g_h * (y > 0.0)
            ssn_g = ssn_backward(cache, g_y)
            layers.insert(0, (cache, ssn_g))
            g_pre = _flat(ssn_g.x)
            g_mix = (g_pre @ _flat(inp).transpose(0, 2, 1)).sum(axis=0)
            grads[2:2] = [g_mix, ssn_g.gamma, ssn_g.beta, ssn_g.z_mean, ssn_g.z_var]
            g_h = (mix_w.T @ g_pre).reshape(inp.shape)
        return loss, grads, layers

    def accuracy(self, x, labels, r):
        logits, _ = self.forward(x, r)
        return float((logits.argmax(axis=1) == labels).mean())


def _check_data(model: ToyModelConfig, data) -> tuple[np.ndarray, np.ndarray]:
    """``data``'s x and labels as arrays, if x has ``model``'s (n, channels,
    height, width) with n >= 1 and the labels are n classes of it."""
    x_all, y_all = data
    x_all = check_array("x", x_all)
    y_all = np.asarray(y_all)
    dims = (model.channels, model.height, model.width)
    if x_all.ndim != 4 or x_all.shape[0] < 1 or x_all.shape[1:] != dims:
        raise InvalidInputError(
            f"x must have shape (n, {', '.join(map(str, dims))}) with n >= 1, "
            f"got {x_all.shape}")
    n = x_all.shape[0]
    if y_all.shape != (n,) or not np.issubdtype(y_all.dtype, np.integer) or \
            y_all.min() < 0 or y_all.max() >= model.n_classes:
        raise InvalidInputError(
            f"labels must be {n} integers in [0, {model.n_classes})")
    return x_all, y_all


def train(model: ToyModelConfig, opt: OptimizerConfig, data) -> TrajectoryLog:
    """SGD with momentum; gate logits use lr * z_lr_ratio, no weight decay,
    and stop updating once their ratio goes one-hot.  The radius follows
    ``opt.schedule``.  Returns the full per-step trajectory together with
    the trained net."""
    # Checked here: inside the loop an InvalidInputError means divergence.
    x_all, y_all = _check_data(model, data)
    n = x_all.shape[0]
    steps_per_epoch = math.ceil(n / model.batch_size)
    total_steps = opt.epochs * steps_per_epoch
    k = len(model.omega)
    sched = opt.schedule or RadiusSchedule(((0, 0.0), (total_steps, 1.0)))

    rng = np.random.default_rng(model.seed)
    net = _ToyNet(model, opt, rng)
    rows = []
    step = 0
    for _ in range(opt.epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            idx = order[b * model.batch_size:(b + 1) * model.batch_size]
            xb, yb = x_all[idx], y_all[idx]
            r = sched.radius(step, k)
            try:
                loss, grads, layers = net.loss_and_grads(xb, yb, r)
            except InvalidInputError as exc:  # the parameters blew up
                raise TrainingFailedError(step, str(exc)) from exc
            if not math.isfinite(loss):
                raise TrainingFailedError(step, "loss is not finite")

            layer_records = []
            for params, (cache, ssn_g) in zip(net.ssn, layers):
                p, pp = cache.p_res.p, cache.pp_res.p
                layer_records.append(LayerRecord(
                    p=tuple(p), pp=tuple(pp),
                    frozen_mean=params.gate.frozen_mean,
                    frozen_var=params.gate.frozen_var,
                    stage=cache.p_res.stage.value,
                    z_grad_mean=tuple(ssn_g.z_mean),
                    z_grad_var=tuple(ssn_g.z_var)))
                # Freeze on the first exactly one-hot ratio, before the update,
                # so the frozen logits are the ones that went one-hot; never
                # unfreeze.
                if p.max() == 1.0:
                    params.gate.frozen_mean = True
                if pp.max() == 1.0:
                    params.gate.frozen_var = True

            for param, grad in zip(net.params, grads):
                if param.frozen and getattr(*param.frozen):
                    continue
                param.velocity *= opt.momentum
                param.velocity += grad + param.weight_decay * param.value
                param.value -= param.lr * param.velocity
            rows.append(StepRecord(step=step, r=r, loss=float(loss),
                                   layers=tuple(layer_records)))
            step += 1

    # One train-mode forward over the full set gives the final accuracy, and
    # its BN moments become the running statistics (precise BN), so eval mode
    # reproduces it.  BN has a variance wherever eval mode reads one.
    logits, (caches, _, _) = net.forward(x_all, rows[-1].r)
    for params, (_, cache, _) in zip(net.ssn, caches):
        bn_mean, bn_var = cache.stats.get("BN", (None, None))
        if bn_mean is not None:
            params.bn_running_mean = bn_mean.reshape(-1)
        if bn_var is not None:
            params.bn_running_var = bn_var.reshape(-1)
    acc = float((logits.argmax(axis=1) == y_all).mean())
    return TrajectoryLog(omega=model.omega, layer_count=len(net.ssn),
                         rows=rows, final_accuracy=acc, net=net)


def selection_histogram(log: TrajectoryLog):
    """Counts of the trained net's layers selecting each normalizer, kept
    separately for the mean and variance gates.  Each layer's selection is
    ``select_normalizer``'s, so a gate that never froze raises
    ``NotConvergedError``."""
    mean_counts = {name: 0 for name in log.omega}
    var_counts = {name: 0 for name in log.omega}
    for params in log.net.ssn:
        mean_name, var_name = select_normalizer(params, log.omega)
        mean_counts[mean_name] += 1
        var_counts[var_name] += 1
    return {"mean": mean_counts, "var": var_counts}


def schedule_insensitivity_experiment(model: ToyModelConfig, opt: OptimizerConfig,
                                      data, ri_steps) -> list[TrajectoryLog]:
    """One training run per requested step, with the schedule crossing the
    inscribed radius there.  Each log carries the run's final accuracy and,
    in its last row, its final loss."""
    n = _check_data(model, data)[0].shape[0]
    total_steps = opt.epochs * math.ceil(n / model.batch_size)
    k = len(model.omega)
    ri_steps = list(ri_steps)
    for s in ri_steps:  # every step is checked before the first run
        check_integer("ri_steps", s, 1)
        if s > total_steps - 2:
            raise InvalidInputError(f"ri_steps must lie in [1, {total_steps - 2}] of a "
                                    f"{total_steps}-step run, got {s}")
    logs = []
    for s in ri_steps:
        # Reach the inscribed radius at step s and the circumradius at the
        # final step.
        knots = ((0, 0.0), (s, inradius(k)), (total_steps - 1, circumradius(k)))
        logs.append(train(model, replace(opt, schedule=RadiusSchedule(knots)), data))
    return logs
