"""Command-line front end.

Subcommands: project (evaluate a simplex mapping), gradcheck (finite-
difference verification of the projection gradient), trajectory (simulate
gate-logit descent under the radius schedule), train (toy end-to-end run),
sweep (final accuracy as the step where the radius reaches the inscribed
radius moves), bench (eval-mode forward throughput), verify (run the
invariant suite).

Exit codes: 0 success, 1 verification/training failure, 2 usage error.
Stdout carries JSON/CSV results only; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .errors import (InvalidInputError, NotConvergedError, TrainingFailedError)
from .layer import WORKERS, benchmark_forward
from .simplex import (RadiusSchedule, Stage, circumradius, softmax, sparsemax,
                      sparsestmax, sparsestmax_vjp, vjp_gradcheck)
from .training import (OptimizerConfig, ToyModelConfig, make_synthetic_dataset,
                       schedule_insensitivity_experiment, selection_histogram,
                       train)

GRADCHECK_TOL = 1e-5


def _sig12(x: float) -> float:
    """Round-trip through 12 significant digits for serialization."""
    return float(f"{float(x):.12g}")


def _emit(obj) -> None:
    print(json.dumps(obj))


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _parse_z(text: str) -> np.ndarray:
    try:
        vals = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"--z: could not parse '{text}' as a comma list")
    if len(vals) < 2:
        raise InvalidInputError("--z: need at least two components")
    if not all(math.isfinite(v) for v in vals):
        raise InvalidInputError("--z: values must be finite")
    return np.asarray(vals, dtype=np.float64)


def _parse_dims(text: str) -> tuple[int, int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 4:
        raise InvalidInputError("--dims: expected NxCxHxW")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidInputError(f"--dims: could not parse '{text}'")
    if min(dims) < 1:
        raise InvalidInputError("--dims: all dimensions must be positive")
    return dims


def cmd_project(args) -> int:
    z = _parse_z(args.z)
    if args.k is not None and args.k != z.size:
        raise InvalidInputError(f"--k: got {args.k} but --z has {z.size} components")
    if args.fn == "softmax":
        p, stage, support = softmax(z), "Softmax", np.arange(z.size)
    elif args.fn == "sparsemax":
        p = sparsemax(z)
        stage, support = Stage.SPARSEMAX.value, np.flatnonzero(p > 0.0)
    else:
        if args.r is None:
            raise InvalidInputError("--r: required for sparsestmax")
        if not (math.isfinite(args.r) and args.r >= 0):
            raise InvalidInputError(f"--r: must be a finite number >= 0, got {args.r}")
        res = sparsestmax(z, args.r)
        p, stage, support = res.p, res.stage.value, np.flatnonzero(res.p > 0.0)
    _emit({"p": [_sig12(v) for v in p], "stage": stage,
           "support": [int(i) for i in support]})
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise InvalidInputError(f"--trials: must be >= 1, got {args.trials}")
    if args.k < 2:
        raise InvalidInputError(f"--k: must be >= 2, got {args.k}")
    max_rel = vjp_gradcheck(np.random.default_rng(args.seed), args.k, args.trials,
                            0.95 * circumradius(args.k))
    passed = max_rel < GRADCHECK_TOL
    _emit({"trials": args.trials, "k": args.k,
           "max_rel_error": _sig12(max_rel), "tolerance": GRADCHECK_TOL,
           "passed": passed})
    return 0 if passed else 1


def cmd_trajectory(args) -> int:
    z = _parse_z(args.z)
    if args.steps < 1:
        raise InvalidInputError(f"--steps: must be >= 1, got {args.steps}")
    k = z.size
    sched = RadiusSchedule(((0, 0.0), (args.steps, 1.0)))
    rng = np.random.default_rng(args.seed)
    # Synthetic objective: prefer a random target component, with mild noise,
    # descended through the projection gradient.
    target = int(rng.integers(k))
    lr = 0.1
    lines = ["step,r," + ",".join(f"p{i}" for i in range(1, k + 1))]
    for step in range(args.steps + 1):
        r = sched.radius(step, k)
        res = sparsestmax(z, r)
        lines.append(f"{step},{r:.17g}," +
                     ",".join(f"{v:.17g}" for v in res.p))
        if step == args.steps:
            break
        upstream = -np.eye(k)[target] + 0.05 * rng.normal(size=k)
        z = z - lr * sparsestmax_vjp(res, upstream)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _defaults(cls) -> dict:
    return {f.name: f.default if f.default is not dataclasses.MISSING
            else f.default_factory() for f in dataclasses.fields(cls)}


# Each config section maps its keys to their defaults; a value read from
# the file must have its default's type.
_CONFIG_SECTIONS = {
    "model": _defaults(ToyModelConfig),
    "optimizer": _defaults(OptimizerConfig),
    "data": {"n_samples": 200, "separation": 2.0, "noise": 1.0},
}


def _config_value(section: str, key: str, value):
    where = f"--config: {section}.{key}"
    if key not in _CONFIG_SECTIONS[section]:
        raise InvalidInputError(f"{where} is not a known key")
    default = _CONFIG_SECTIONS[section][key]
    if key == "schedule":
        try:
            return RadiusSchedule(value)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{where}: {exc}")
    if isinstance(default, (list, tuple)):  # layer_widths, omega
        ok = isinstance(value, list) and all(type(v) is type(default[0]) for v in value)
        value = type(default)(value) if ok else value
    else:
        ok = type(value) is int or (type(default) is float and type(value) is float
                                    and math.isfinite(value))
    if not ok:
        raise InvalidInputError(f"{where} has the wrong type: {value!r}")
    return value


def _load_train_configs(path: str, seed_override):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"--config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"--config: invalid JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        raise InvalidInputError(f"--config: {path} must hold a JSON object")
    sections = {}
    for name, section in raw.items():
        if name not in _CONFIG_SECTIONS:
            raise InvalidInputError(f"--config: unknown section {name!r}")
        if not isinstance(section, dict):
            raise InvalidInputError(f"--config: {name} must be an object")
        sections[name] = {key: _config_value(name, key, value)
                          for key, value in section.items()}
    model_raw = sections.get("model", {})
    if seed_override is not None:
        model_raw["seed"] = seed_override
    try:
        model = ToyModelConfig(**model_raw)
        opt = OptimizerConfig(**sections.get("optimizer", {}))
    except InvalidInputError as exc:
        raise InvalidInputError(f"--config: {exc}")
    data_raw = {**_CONFIG_SECTIONS["data"], **sections.get("data", {})}
    data = make_synthetic_dataset(
        seed=model.seed, n_samples=data_raw["n_samples"],
        dims=(model.channels, model.height, model.width),
        n_classes=model.n_classes,
        separation=float(data_raw["separation"]),
        noise=float(data_raw["noise"]))
    return model, opt, data


def cmd_train(args) -> int:
    model, opt, data = _load_train_configs(args.config, args.seed)
    log = train(model, opt, data)
    csv_text = log.to_csv(args.out)
    if not args.out:
        print(csv_text, file=sys.stderr, end="")
    last = log.rows[-1]
    summary = {"steps": len(log.rows), "final_r": _sig12(last.r),
               "final_loss": _sig12(last.loss),
               "final_accuracy": _sig12(log.final_accuracy)}
    try:
        selection = selection_histogram(log)
    except NotConvergedError:
        _emit({**summary, "all_gates_one_hot": False})
        return 1
    _emit({**summary, "all_gates_one_hot": True, "selection": selection})
    return 0


def cmd_sweep(args) -> int:
    if args.epochs < 1:
        raise InvalidInputError(f"--epochs: must be >= 1, got {args.epochs}")
    if not all(0.0 < f < 1.0 for f in args.fractions):
        raise InvalidInputError("--fractions: each must lie in (0, 1)")
    model, opt, data = _load_train_configs(args.config, None)
    opt = dataclasses.replace(opt, epochs=args.epochs)
    total = args.epochs * math.ceil(data[0].shape[0] / model.batch_size)
    ri_steps = [int(f * total) for f in args.fractions]
    for f, s in zip(args.fractions, ri_steps):
        if not 0 < s < total - 1:
            raise InvalidInputError(
                f"--fractions: {f} puts the inscribed-radius step at {s} of a "
                f"{total}-step run; it must lie in [1, {total - 2}]")
    logs = schedule_insensitivity_experiment(model, opt, data, ri_steps)
    accs = [log.final_accuracy for log in logs]
    losses = [log.rows[-1].loss for log in logs]
    _emit({"total_steps": total,
           "runs": [{"fraction": f, "ri_step": s, "accuracy": _sig12(a),
                     "final_loss": _sig12(loss)}
                    for f, s, a, loss in zip(args.fractions, ri_steps, accs, losses)],
           "spread_pp": _sig12((max(accs) - min(accs)) * 100.0),
           "loss_spread": _sig12(max(losses) - min(losses))})
    return 0


def cmd_bench(args) -> int:
    n, c, h, w = _parse_dims(args.dims)
    if args.reps < 1:
        raise InvalidInputError(f"--reps: must be >= 1, got {args.reps}")
    result = benchmark_forward(n, c, h, w, args.reps, seed=args.seed)
    _emit({"combined_ms": _sig12(result["combined_ms"]),
           "sparse_ms": _sig12(result["sparse_ms"]),
           "ratio": _sig12(result["ratio"]), "workers": WORKERS})
    return 0


def _verify_checks(rng):
    """Fast invariant suite run by `verify`. Yields (name, passed)."""
    r_circum3 = circumradius(3)

    def check_simplex_membership():
        for _ in range(200):
            z = rng.normal(size=3)
            r = rng.uniform(0.0, r_circum3)
            p = sparsestmax(z, r).p
            if abs(p.sum() - 1.0) > 1e-12 or p.min() < 0:
                return False
        return True

    def check_radius_constraint():
        for _ in range(200):
            z = rng.normal(size=4)
            r = rng.uniform(0.05, 0.85)
            res = sparsestmax(z, r)
            d = np.linalg.norm(res.p - 0.25)
            if res.stage != Stage.SPARSEMAX and d < r - 1e-9:
                return False
        return True

    def check_sparsemax_known():
        p = sparsemax([0.8, 0.6, 0.1])
        return bool(np.max(np.abs(p - [0.6, 0.4, 0.0])) <= 1e-12)

    def check_vertex_limit():
        for _ in range(50):
            z = rng.normal(size=3)
            p = sparsestmax(z, r_circum3).p
            if sorted(p) != [0.0, 0.0, 1.0]:
                return False
        return True

    def check_gradient_sample():
        return vjp_gradcheck(rng, 3, 20, 0.75) <= 1e-4

    checks = [
        ("simplex_membership", check_simplex_membership),
        ("radius_constraint", check_radius_constraint),
        ("sparsemax_known_value", check_sparsemax_known),
        ("vertex_limit_one_hot", check_vertex_limit),
        ("gradient_finite_difference", check_gradient_sample),
    ]
    for name, fn in checks:
        yield name, bool(fn())


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    results = list(_verify_checks(rng))
    ok = all(passed for _, passed in results)
    if args.json:
        _emit({"checks": [{"name": n, "passed": p} for n, p in results],
               "passed": ok})
    else:
        width = max(len(n) for n, _ in results)
        for name, passed in results:
            print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}")
        print(f"{'overall':<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssnorm",
        description="Sparse simplex projections and gated normalization tools.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("project", help="evaluate a simplex mapping")
    p.add_argument("--fn", choices=["softmax", "sparsemax", "sparsestmax"],
                   default="sparsestmax")
    p.add_argument("--z", required=True, help="comma-separated input vector")
    p.add_argument("--r", type=float, default=None, help="radius constraint")
    p.add_argument("--k", type=int, default=None, help="expected dimension")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("trajectory",
                       help="simulate gate descent under the radius schedule")
    p.add_argument("--z", required=True, help="comma-separated initial logits")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("train", help="run the toy training harness")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--out", default=None, help="trajectory CSV output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="final accuracy and loss vs the step where "
                                     "the radius reaches the inscribed radius")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.4, 0.5, 0.6, 0.7],
                   help="inscribed-radius step as a fraction of the run")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="eval-mode forward timing")
    p.add_argument("--dims", default="32x64x56x56", help="NxCxHxW")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable results")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        return _usage_error(f"--seed: must be >= 0, got {seed}")
    try:
        return args.func(args)
    except InvalidInputError as exc:
        return _usage_error(str(exc))
    except TrainingFailedError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
