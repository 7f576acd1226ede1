"""Command-line front end.

Subcommands: project (evaluate a simplex mapping), gradcheck (finite-
difference verification of the projection gradient), trajectory (simulate
gate-logit descent under the radius schedule), train (toy end-to-end run),
sweep (final accuracy as the step where the radius reaches the inscribed
radius moves), bench (eval-mode forward throughput), verify (run the
invariant suite).

Exit codes: 0 success, 1 verification/training failure, 2 usage error (a
message naming the flag, or argparse's own); --out is written after the run,
and train rejects an --out it could never write before the run.
Stdout carries JSON/CSV results only; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys

import numpy as np

from .errors import (InvalidInputError, NotConvergedError, TrainingFailedError,
                     check_integer, check_real)
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


def _write_out(path, text: str, stream) -> None:
    """Write ``text`` to the ``--out`` file, or to ``stream`` without one."""
    if path is None:
        stream.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"--out: cannot write {path}: {exc.strerror or exc}")


def _check_out(path) -> None:
    """Raise ``_write_out``'s error for an ``--out`` PATH that is a directory
    or whose parent directory does not exist, before a run that would end by
    writing it; create no file."""
    if path is None:
        return
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise InvalidInputError(f"--out: cannot write {path}: {os.strerror(code)}")


def _parse_z(text: str) -> np.ndarray:
    try:
        vals = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"--z: could not parse '{text}' as a comma list")
    if len(vals) < 2:
        raise InvalidInputError("--z: need at least two components")
    if not all(math.isfinite(v) for v in vals):
        raise InvalidInputError("--z: values must be finite")
    return np.array(vals)


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
        p, stage = softmax(z), "Softmax"
    elif args.fn == "sparsemax":
        p, stage = sparsemax(z), Stage.SPARSEMAX.value
    else:
        if args.r is None:
            raise InvalidInputError("--r: required for sparsestmax")
        if not (math.isfinite(args.r) and args.r >= 0):
            raise InvalidInputError(f"--r: must be a finite number >= 0, got {args.r}")
        res = sparsestmax(z, args.r)
        p, stage = res.p, res.stage.value
    _emit({"p": [_sig12(v) for v in p], "stage": stage,
           "support": np.flatnonzero(p).tolist()})
    return 0


def cmd_gradcheck(args) -> int:
    max_rel = vjp_gradcheck(np.random.default_rng(args.seed), args.k, args.trials,
                            0.95 * circumradius(args.k))
    passed = max_rel < GRADCHECK_TOL
    _emit({"trials": args.trials, "k": args.k,
           "max_rel_error": _sig12(max_rel), "tolerance": GRADCHECK_TOL,
           "passed": passed})
    return 0 if passed else 1


def cmd_trajectory(args) -> int:
    z = _parse_z(args.z)
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
    _write_out(args.out, "\n".join(lines) + "\n", sys.stdout)
    return 0


# Each config section maps its keys to their defaults; a value read from
# the file must have its default's type, a number by its ``errors`` rule.
_CONFIG_SECTIONS = {
    "model": dataclasses.asdict(ToyModelConfig()),
    "optimizer": dataclasses.asdict(OptimizerConfig()),
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
    listed = isinstance(default, (list, tuple))  # layer_widths, omega
    sample = default[0] if listed else default
    if listed and not isinstance(value, list) or \
            isinstance(sample, str) and not all(type(v) is str for v in value):
        raise InvalidInputError(f"{where} has the wrong type: {value!r}")
    if not isinstance(sample, str):
        check = check_real if isinstance(sample, float) else check_integer
        for item in value if listed else [value]:
            check(where, item)
    return type(default)(value) if listed else value


def _load_train_configs(path: str, seed_override):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"--config: cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:  # not JSON, or not UTF-8
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
        data_raw = {**_CONFIG_SECTIONS["data"], **sections.get("data", {})}
        data = make_synthetic_dataset(
            seed=model.seed, n_samples=data_raw["n_samples"],
            dims=(model.channels, model.height, model.width),
            n_classes=model.n_classes,
            separation=float(data_raw["separation"]),
            noise=float(data_raw["noise"]))
    except InvalidInputError as exc:
        raise InvalidInputError(f"--config: {exc}")
    return model, opt, data


def cmd_train(args) -> int:
    model, opt, data = _load_train_configs(args.config, args.seed)
    _check_out(args.out)
    log = train(model, opt, data)
    _write_out(args.out, log.to_csv(), sys.stderr)
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


# The least value of each integer flag, checked wherever a subcommand has it.
_FLAG_MINIMUMS = {"seed": 0, "trials": 1, "k": 2, "steps": 1, "epochs": 1, "reps": 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, least in _FLAG_MINIMUMS.items():
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise InvalidInputError(f"--{flag}: must be >= {least}, got {value}")
        return args.func(args)
    except (InvalidInputError, TrainingFailedError) as exc:
        print(exc, file=sys.stderr)
        return 2 if isinstance(exc, InvalidInputError) else 1


if __name__ == "__main__":
    sys.exit(main())
