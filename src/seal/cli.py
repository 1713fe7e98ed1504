"""The `seal` command line: generate / train / eval / verify-theory / report.

Heavy imports happen inside the command handlers so that the thread cap
(--threads, SEAL_THREADS, or --deterministic, which forces one thread)
can be written into the BLAS environment variables before numpy loads.
Exit codes: 0 success, 1 input or format error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import DataFormatError, InputError, NumericError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="seal", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=None, help="BLAS thread cap")
    parser.add_argument(
        "--deterministic", action="store_true",
        help="single-threaded, bit-reproducible mode",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to a directory")
    gen.add_argument("--counts", required=True, help="per-level class counts, e.g. 4,12,24")
    gen.add_argument("--per-class", type=int, default=100)
    gen.add_argument("--dim", type=int, default=32)
    gen.add_argument("--spreads", default=None, help="levels+1 scales, e.g. 10,4,1,1.2")
    gen.add_argument("--imbalance", type=float, default=1.0)
    gen.add_argument("--old-fraction", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="run the training loop from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=None, help="override the config seed")

    ev = sub.add_parser("eval", help="score a prediction CSV against truth labels")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--hierarchy", required=True)
    ev.add_argument("--reassign-subsets", action="store_true")
    ev.add_argument("--dump-projection", default=None,
                    help="write 2-D projection data to this CSV (needs --features and --checkpoint)")
    ev.add_argument("--features", default=None)
    ev.add_argument("--checkpoint", default=None)

    vt = sub.add_parser("verify-theory", help="run the information-theoretic checks")
    vt.add_argument("--trials", type=int, default=1000)
    vt.add_argument("--seed", type=int, default=0)

    rp = sub.add_parser("report", help="summarize a finished run directory")
    rp.add_argument("--run", required=True)
    return parser


def _pin_threads(args) -> None:
    threads = args.threads
    env_threads = os.environ.get("SEAL_THREADS")
    if env_threads is not None:
        try:
            threads = int(env_threads)
        except ValueError as exc:
            raise InputError(
                f"SEAL_THREADS must be an integer, got {env_threads!r}"
            ) from exc
    if args.deterministic:
        threads = 1
    if threads is not None:
        if threads < 1:
            raise InputError(f"thread count must be positive, got {threads}")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _pin_threads(args)
        handler = {
            "generate": _cmd_generate,
            "train": _cmd_train,
            "eval": _cmd_eval,
            "verify-theory": _cmd_verify_theory,
            "report": _cmd_report,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"seal: usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, DataFormatError) as exc:
        print(f"seal: error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"seal: numeric failure: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"seal: error: {exc}", file=sys.stderr)
        return 1


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _cmd_generate(args) -> int:
    import numpy as np

    from .datagen import generate_synthetic, make_gcd_split, save_features_csv
    from .hierarchy import balanced_hierarchy, save_hierarchy

    counts = _parse_int_list(args.counts)
    spreads = None
    if args.spreads is not None:
        try:
            spreads = [float(v) for v in args.spreads.split(",") if v != ""]
        except ValueError as exc:
            raise InputError(f"bad --spreads value {args.spreads!r}") from exc
    spec = balanced_hierarchy(counts)
    dataset = generate_synthetic(
        spec,
        per_class=args.per_class,
        dim=args.dim,
        spreads=spreads,
        seed=args.seed,
        imbalance=args.imbalance,
    )
    split = make_gcd_split(
        dataset, old_fraction=args.old_fraction, labelled_fraction=0.5, seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_hierarchy(out / "hierarchy.json", spec, known=split.old_classes)
    save_features_csv(out / "features.csv", dataset)
    print(
        f"wrote {len(dataset)} samples, {spec.num_fine} fine classes "
        f"({len(split.old_classes)} known) to {out}"
    )
    return 0


# the data section's own keys; 'synthetic' is a section of its own, checked
# against generate_synthetic below, and build_run converts the others
_DATA_TYPES = {
    "features": object, "hierarchy": object, "synthetic": dict,
    "old_fraction": object, "labelled_fraction": object, "split_seed": object,
}


def _type_ok(value, expected) -> bool:
    """Whether a parsed JSON value fits an annotation: anything for
    object, no bool for a number, an int for a float, a list for a
    sequence or tuple type."""
    import types
    import typing

    if expected is object:
        return True
    if isinstance(expected, types.UnionType):
        return any(_type_ok(value, t) for t in typing.get_args(expected))
    if expected is type(None):
        return value is None
    if expected is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if expected is float:
        return isinstance(value, (int, float))
    origin = typing.get_origin(expected)
    if origin is not None:
        item = typing.get_args(expected)[0]
        return isinstance(value, list) and all(_type_ok(v, item) for v in value)
    return isinstance(value, expected)


def _type_name(expected) -> str:
    if expected is dict:
        return "a JSON object"
    return expected.__name__ if isinstance(expected, type) else str(expected)


def _check_section(section, types: dict, path, name: str = "") -> None:
    """A JSON object whose keys are all known and whose values fit their
    types; anything else is an InputError naming path:name.key."""
    where = f"{path}:{name}" if name else str(path)
    if not isinstance(section, dict):
        raise InputError(f"{where}: expected a JSON object, got {json.dumps(section)}")
    unknown = set(section) - set(types)
    if unknown:
        raise InputError(f"unknown key(s) in {where}: {sorted(unknown)}")
    for key, value in section.items():
        if not _type_ok(value, types[key]):
            field = f"{name}.{key}" if name else key
            raise InputError(
                f"{path}:{field}: expected {_type_name(types[key])}, got {json.dumps(value)}"
            )


def load_run_config(path) -> dict:
    """Parse and validate a train config JSON: every section must be an
    object, unknown keys are errors, and each train/loss/model and
    data.synthetic value must fit the type of the config field or
    generate_synthetic parameter it sets."""
    import typing

    from .datagen import generate_synthetic
    from .losses import LossConfig
    from .trainer import ModelConfig, TrainConfig

    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    _check_section(
        doc, {"seed": object, "data": dict, "train": dict, "loss": dict, "model": dict}, path
    )
    data = doc.get("data", {})
    _check_section(data, _DATA_TYPES, path, "data")
    if "synthetic" in data:
        synth_types = typing.get_type_hints(generate_synthetic)
        del synth_types["spec"], synth_types["return"]
        synth_types["counts"] = list[int]  # for balanced_hierarchy
        _check_section(data["synthetic"], synth_types, path, "data.synthetic")
    elif "features" not in data or "hierarchy" not in data:
        raise InputError(
            f"{path}: data section needs either 'synthetic' or 'features'+'hierarchy'"
        )
    for section, cls in (("train", TrainConfig), ("loss", LossConfig), ("model", ModelConfig)):
        _check_section(doc.get(section, {}), typing.get_type_hints(cls), path, section)
    return doc


def build_run(doc: dict, seed_override=None):
    """Materialize (dataset, split, spec, configs, seed) from a config doc."""
    from .datagen import load_embeddings, generate_synthetic, make_gcd_split
    from .hierarchy import balanced_hierarchy, load_hierarchy
    from .losses import LossConfig
    from .trainer import ModelConfig, TrainConfig

    seed = int(doc.get("seed", 0)) if seed_override is None else int(seed_override)
    data = doc.get("data", {})
    known = frozenset()
    if "synthetic" in data:
        synth = dict(data["synthetic"])
        spec = balanced_hierarchy(synth.pop("counts"))
        dataset = generate_synthetic(spec, **synth)
    else:
        spec, dataset = load_embeddings(data["features"], data["hierarchy"])
        _, known = load_hierarchy(data["hierarchy"])
    split = make_gcd_split(
        dataset,
        old_fraction=float(data.get("old_fraction", 0.5)),
        labelled_fraction=float(data.get("labelled_fraction", 0.5)),
        seed=int(data.get("split_seed", seed)),
        old_classes=known or None,
    )
    train_kwargs = dict(doc.get("train", {}))
    train_kwargs["seed"] = seed
    train_cfg = TrainConfig(**train_kwargs)
    loss_cfg = LossConfig(**doc.get("loss", {}))
    model_cfg = ModelConfig(**doc.get("model", {}))
    return dataset, split, spec, train_cfg, loss_cfg, model_cfg, seed


def _cmd_train(args) -> int:
    from .model import save_checkpoint
    from .trainer import train

    doc = load_run_config(args.config)
    dataset, split, spec, train_cfg, loss_cfg, model_cfg, seed = build_run(
        doc, seed_override=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state, record = train(dataset, split, spec, seed, train_cfg, loss_cfg, model_cfg)
    with open(out / "metrics.jsonl", "w") as fh:
        for entry in record.epochs:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    final_doc = {
        "final": record.final,
        "config": record.config,
        "wall_clock_seconds": record.wall_clock,
    }
    (out / "final.json").write_text(json.dumps(final_doc, indent=2, sort_keys=True) + "\n")
    save_checkpoint(out / "model.seal", state, meta={"seed": seed})
    print(
        f"trained {train_cfg.epochs} epochs; unlabelled ACC all={record.final['all']:.4f} "
        f"-> {out}"
    )
    return 0


def _read_label_csv(path, levels: int):
    """id + level_1..level_H columns from a CSV; extra columns ignored."""
    import csv as _csv

    import numpy as np

    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    wanted = [f"level_{h}" for h in range(1, levels + 1)]
    with open(path, newline="") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames:
            raise DataFormatError(f"{path}: missing 'id' column")
        missing = [c for c in wanted if c not in reader.fieldnames]
        if missing:
            raise DataFormatError(f"{path}: missing label columns {missing}")
        ids, labels = [], []
        for row_num, row in enumerate(reader):
            try:
                ids.append(int(row["id"]))
                labels.append([int(row[c]) for c in wanted])
            except (TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: row {row_num}: {exc}") from exc
    if not ids:
        raise DataFormatError(f"{path}: no label rows")
    return np.asarray(ids), np.asarray(labels, dtype=np.int64)


def _cmd_eval(args) -> int:
    import numpy as np

    from .evaluation import evaluate_predictions
    from .hierarchy import load_hierarchy

    spec, known = load_hierarchy(args.hierarchy)
    pred_ids, pred = _read_label_csv(args.pred, spec.levels)
    true_ids, truth = _read_label_csv(args.truth, spec.levels)
    order_p = np.argsort(pred_ids)
    order_t = np.argsort(true_ids)
    if not np.array_equal(pred_ids[order_p], true_ids[order_t]):
        raise InputError("prediction and truth files cover different sample ids")
    pred, truth = pred[order_p], truth[order_t]
    if np.any(truth < 0):
        raise InputError("truth file has unknown (-1) labels; cannot score")
    reports = evaluate_predictions(
        truth, pred, spec, known, reassign_subsets=args.reassign_subsets
    )
    doc = {str(h): r.as_dict() for h, r in reports.items()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.dump_projection:
        _dump_projection(args)
    return 0


def _dump_projection(args) -> None:
    """PCA the checkpointed model's aggregated features to two columns
    for external plotting."""
    import numpy as np

    from .datagen import load_embeddings
    from .model import forward, load_checkpoint

    if not args.features or not args.checkpoint:
        raise InputError("--dump-projection needs --features and --checkpoint")
    state, _ = load_checkpoint(args.checkpoint)
    _, dataset = load_embeddings(args.features, args.hierarchy)
    trace = forward(state, dataset.features)
    z = trace.z_hat - trace.z_hat.mean(axis=0)
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    proj = z @ vt[:2].T
    with open(args.dump_projection, "w") as fh:
        fh.write("id,x,y\n")
        for i in range(len(dataset)):
            fh.write(f"{i},{proj[i, 0]!r},{proj[i, 1]!r}\n")


def _cmd_verify_theory(args) -> int:
    from .theory import run_verification

    if args.trials < 1:
        raise InputError(f"--trials must be positive, got {args.trials}")
    results = run_verification(trials=args.trials, seed=args.seed)
    width = max(len(r["check"]) for r in results)
    all_pass = True
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        all_pass &= r["passed"]
        print(f"{r['check']:<{width}}  {status}  (worst residual {r['worst']:.3e})")
    if not all_pass:
        raise NumericError("one or more theory checks failed")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    metrics_path = run_dir / "metrics.jsonl"
    if not metrics_path.exists():
        raise InputError(f"{metrics_path}: no such file")
    entries = []
    with open(metrics_path) as fh:
        for line_num, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(
                    f"{metrics_path}: line {line_num}: invalid JSON ({exc})"
                ) from exc
            if not isinstance(entry, dict):
                raise DataFormatError(
                    f"{metrics_path}: line {line_num}: expected a JSON object, got {line.strip()}"
                )
            entries.append(entry)
    if not entries:
        raise InputError(f"{metrics_path}: no metric entries")

    loss_keys = sorted(
        {k for e in entries for k in e if k.startswith("loss_")}
    )
    curves_path = run_dir / "curves.csv"
    with open(curves_path, "w") as fh:
        fh.write(",".join(["epoch"] + loss_keys + ["lr", "lambda_c"]) + "\n")
        for e in entries:
            row = [str(e.get("epoch"))]
            row += [repr(e.get(k, "")) if isinstance(e.get(k), float) else str(e.get(k, "")) for k in loss_keys]
            row += [repr(e.get("lr", "")), repr(e.get("lambda_c", ""))]
            fh.write(",".join(row) + "\n")

    summary = {"epochs": len(entries), "last_epoch": entries[-1]}
    final_path = run_dir / "final.json"
    if final_path.exists():
        try:
            final_doc = json.loads(final_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"{final_path}: invalid JSON ({exc})") from exc
        if not isinstance(final_doc, dict):
            raise DataFormatError(f"{final_path}: expected a JSON object")
        summary["final"] = final_doc.get("final", {})
    (run_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {curves_path} ({len(entries)} epochs) and summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
