"""The three benchmark workloads and their output checks.

Each workload builds its inputs from the workload seed in ``setup`` (which
also imports the package), runs one closed-loop op per ``op`` call, and
verifies an op's output in ``check`` against references that
``prepare_checks`` computes outside the timed window.  Ops call the package
through module attributes on every call, so the tracer's wrappers see them.

``calibrate`` runs a fixed amount of work that never touches the package and
stresses the same resources as the op: the interpreter for toy-train; the
interpreter and one new full-tensor temporary, written and read back, for
the full-tensor workloads.  Timing it next to every op gives the host's
speed at that moment; ``CAL_REF_MS`` is its median on the reference host (a
2-vCPU x86_64 VM with numpy's bundled OpenBLAS), so normalised op times read
as milliseconds on that host.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from harness import SETUP_CAL_N, interpreter_loop

OMEGA = ("IN", "BN", "LN", "GN")
GN_GROUPS = 32
TOL = 1e-12
TOY_CONFIG = Path(__file__).resolve().parent / "toy_default.json"


def reference_moments(x, groups: int) -> dict:
    """Per-(N, C) mean and biased variance of every normalizer.

    BN, LN and GN pool the IN moments by the law of total variance, an
    independent route to the same statistics the layer computes directly."""
    n, c = x.shape[:2]
    m_in, v_in = x.mean(axis=(2, 3)), x.var(axis=(2, 3))

    def pooled(m, v, axis):
        mu = m.mean(axis=axis, keepdims=True)
        var = (v + (m - mu) ** 2).mean(axis=axis, keepdims=True)
        return (np.broadcast_to(mu, m.shape).reshape(n, c),
                np.broadcast_to(var, m.shape).reshape(n, c))

    mg = m_in.reshape(n, groups, c // groups)
    vg = v_in.reshape(n, groups, c // groups)
    return {"IN": (m_in, v_in), "BN": pooled(m_in, v_in, 0),
            "LN": pooled(m_in, v_in, 1), "GN": pooled(mg, vg, 2)}


def mix(moments: dict, p, pp):
    """Gate-weighted per-(N, C) mean and variance."""
    mu = sum(p[i] * moments[name][0] for i, name in enumerate(OMEGA) if p[i])
    var = sum(pp[i] * moments[name][1] for i, name in enumerate(OMEGA) if pp[i])
    return mu, var


class AffineReference:
    """Expected layer output ``(x - mu) * gamma / sqrt(var + eps) + beta``,
    evaluated one sample at a time so no second full tensor is stored."""

    def __init__(self, x, mu_nc, var_nc, gamma, beta, eps):
        self.x, self.mu, self.beta = x, mu_nc, beta
        self.scale = gamma / np.sqrt(var_nc + eps)
        top = max(float(np.max(np.abs(self._sample(i)))) for i in range(x.shape[0]))
        self.atol = TOL * max(1.0, top)

    def _sample(self, i):
        return ((self.x[i] - self.mu[i][:, None, None]) *
                self.scale[i][:, None, None] + self.beta[:, None, None])

    def matches(self, y) -> bool:
        if getattr(y, "shape", None) != self.x.shape:
            return False
        return all(np.all(np.abs(y[i] - self._sample(i)) <= self.atol)
                   for i in range(self.x.shape[0]))


def tensor_calibration(x) -> float:
    """Interpreter work plus one new temporary the size of ``x``."""
    return interpreter_loop(50_000) + float((x * 1.5).sum())


def _one_hot_logits(index: int) -> np.ndarray:
    return np.where(np.arange(len(OMEGA)) == index, 10.0, 0.0)


class ToyTrain:
    """One op is an in-process ``ssnorm train`` run of the toy config."""

    name = "toy-train"
    n_seeds = 3
    CAL_REF_MS = 15.0

    def __init__(self, seed: int, out_dir: Path):
        self.seeds = random.Random(seed).sample(range(1_000_000), self.n_seeds)
        self.cycle = self.n_seeds
        self.out_dir = out_dir
        self.csv_refs: dict = {}

    def setup(self):
        self.cli = importlib.import_module("ssnorm.cli")
        cfg = json.loads(TOY_CONFIG.read_text())
        batch = cfg["model"]["batch_size"]
        steps = cfg["optimizer"]["epochs"] * math.ceil(cfg["data"]["n_samples"] / batch)
        self.images_per_op = steps * batch

    def prepare_checks(self):
        pass

    def calibrate(self):
        return interpreter_loop(SETUP_CAL_N)

    def _csv_path(self, seed: int) -> Path:
        return self.out_dir / f"toy-train-{seed}.csv"

    def op(self, i: int):
        seed = self.seeds[i % self.n_seeds]
        argv = ["train", "--config", str(TOY_CONFIG), "--seed", str(seed),
                "--out", str(self._csv_path(seed))]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return seed, code, buf.getvalue()

    def check(self, i: int, out) -> bool:
        seed, code, stdout = out
        path = self._csv_path(seed)
        if not path.is_file():
            return False
        csv = path.read_bytes()
        path.unlink()
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return False
        ref = self.csv_refs.setdefault(seed, csv)
        return code == 0 and summary.get("all_gates_one_hot") is True and csv == ref


class LayerTrain:
    """One op is forward, backward and running-statistics update of one
    train-mode layer with all four normalizers active in both gates."""

    name = "layer-train"
    cycle = 1
    radius = 0.1
    CAL_REF_MS = 15.0

    def __init__(self, seed: int, out_dir: Path = None, shape=(16, 64, 56, 56),
                 groups: int = GN_GROUPS):
        self.seed, self.shape, self.groups = seed, shape, groups
        self.images_per_op = shape[0]

    def setup(self):
        self.layer = importlib.import_module("ssnorm.layer")
        rng = np.random.default_rng(self.seed)
        c = self.shape[1]
        self.x = rng.normal(size=self.shape)
        self.upstream = rng.normal(size=self.shape)
        params = self.layer.SsnParams.init(c, len(OMEGA))
        # Near-uniform logits and r well below 1/k keep every ratio nonzero.
        params.gate.z_mean = 1.0 + 0.02 * rng.normal(size=len(OMEGA))
        params.gate.z_var = 1.0 + 0.02 * rng.normal(size=len(OMEGA))
        params.gamma = 1.0 + 0.1 * rng.normal(size=c)
        params.beta = 0.1 * rng.normal(size=c)
        self.params = params
        self.bn_mean = self.x.mean(axis=(0, 2, 3))
        self.bn_var = self.x.var(axis=(0, 2, 3))

    def prepare_checks(self):
        simplex = importlib.import_module("ssnorm.simplex")
        gate = self.params.gate
        p = simplex.sparsestmax(gate.z_mean, self.radius).p
        pp = simplex.sparsestmax(gate.z_var, self.radius).p
        mu, var = mix(reference_moments(self.x, self.groups), p, pp)
        self.ref = AffineReference(self.x, mu, var, self.params.gamma,
                                   self.params.beta, self.params.eps)
        self.beta_ref = self.upstream.sum(axis=(0, 2, 3))
        self.beta_atol = TOL * np.abs(self.upstream).sum(axis=(0, 2, 3))

    def calibrate(self):
        return tensor_calibration(self.x)

    def op(self, i: int):
        layer = self.layer
        y, cache = layer.ssn_forward(self.x, self.params, self.radius, OMEGA,
                                     self.groups)
        grads = layer.ssn_backward(cache, self.upstream)
        layer.update_running_stats(self.params, self.bn_mean, self.bn_var)
        return y, grads

    def check(self, i: int, out) -> bool:
        y, grads = out
        arrays = [v for v in vars(grads).values() if isinstance(v, np.ndarray)]
        return (self.ref.matches(y) and bool(arrays) and
                all(np.all(np.isfinite(a)) for a in arrays) and
                bool(np.all(np.abs(grads.beta - self.beta_ref) <= self.beta_atol)))


class Infer:
    """One op is an eval-mode forward of a frozen one-hot layer; the
    selection cycles so that every normalizer, and a mixed pair, is timed."""

    name = "infer"
    selections = (("IN", "IN"), ("BN", "BN"), ("LN", "LN"), ("GN", "GN"),
                  ("LN", "BN"))
    cycle = len(selections)
    CAL_REF_MS = 25.0

    def __init__(self, seed: int, out_dir: Path = None, shape=(32, 64, 56, 56),
                 groups: int = GN_GROUPS):
        self.seed, self.shape, self.groups = seed, shape, groups
        self.images_per_op = shape[0]
        self.radius = math.sqrt((len(OMEGA) - 1) / len(OMEGA))

    def setup(self):
        self.layer = importlib.import_module("ssnorm.layer")
        rng = np.random.default_rng(self.seed)
        c = self.shape[1]
        self.x = rng.normal(loc=0.5, size=self.shape)
        gamma = 1.0 + 0.1 * rng.normal(size=c)
        beta = 0.1 * rng.normal(size=c)
        running_mean = 0.5 + 0.05 * rng.normal(size=c)
        running_var = rng.uniform(0.8, 1.2, size=c)
        self.params = []
        for mean_sel, var_sel in self.selections:
            params = self.layer.SsnParams.init(c, len(OMEGA))
            params.gate.z_mean = _one_hot_logits(OMEGA.index(mean_sel))
            params.gate.z_var = _one_hot_logits(OMEGA.index(var_sel))
            params.gate.frozen_mean = params.gate.frozen_var = True
            params.gamma, params.beta = gamma.copy(), beta.copy()
            params.bn_running_mean = running_mean.copy()
            params.bn_running_var = running_var.copy()
            params.mode = self.layer.EVAL
            self.params.append(params)

    def prepare_checks(self):
        simplex = importlib.import_module("ssnorm.simplex")
        moments = reference_moments(self.x, self.groups)
        n, c = self.shape[:2]
        self.refs = []
        for params in self.params:
            moments["BN"] = (np.broadcast_to(params.bn_running_mean, (n, c)),
                             np.broadcast_to(params.bn_running_var, (n, c)))
            p = simplex.sparsestmax(params.gate.z_mean, self.radius).p
            pp = simplex.sparsestmax(params.gate.z_var, self.radius).p
            mu, var = mix(moments, p, pp)
            self.refs.append(AffineReference(self.x, mu, var, params.gamma,
                                             params.beta, params.eps))

    def calibrate(self):
        return tensor_calibration(self.x)

    def op(self, i: int):
        params = self.params[i % self.cycle]
        y, _ = self.layer.ssn_forward(self.x, params, self.radius, OMEGA,
                                      self.groups)
        return y

    def check(self, i: int, out) -> bool:
        return self.refs[i % self.cycle].matches(out)


WORKLOADS = {w.name: w for w in (ToyTrain, LayerTrain, Infer)}
