"""The `seal` command line: generate / train / eval / verify-theory / report.

Heavy imports happen inside the command handlers so that the thread cap
(--threads, SEAL_THREADS, or --deterministic, which forces one BLAS thread)
can be written into the BLAS environment variables before numpy loads.
Exit codes: 0 success, 1 input or format error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import BLAS_THREAD_VARS
from .errors import (
    DataFormatError, InputError, NumericError, parse_json, read_json, type_name, type_ok,
)


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
        help="one BLAS thread, bit-reproducible mode",
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
        for var in BLAS_THREAD_VARS:
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
    except OSError as exc:  # a missing path, or one of the wrong kind; names the path
        print(f"seal: error: {exc}", file=sys.stderr)
        return 1


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InputError(f"--seed must be at least 0, got {seed}")


def _cmd_generate(args) -> int:
    import numpy as np

    from .datagen import generate_synthetic, make_gcd_split, save_features_csv
    from .hierarchy import balanced_hierarchy, save_hierarchy

    _check_seed(args.seed)
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


_TOP_TYPES = {"seed": int, "data": dict, "train": dict, "loss": dict, "model": dict}
# the data section's own keys; 'synthetic' is a section of its own, checked
# against generate_synthetic below
_DATA_TYPES = {
    "features": str, "hierarchy": str, "synthetic": dict,
    "old_fraction": float, "labelled_fraction": float, "split_seed": int,
}
# the least value of each integer field (or of each entry of a list field)
# that the types alone leave open
_AT_LEAST = {"seed": 0, "data.split_seed": 0, "data.synthetic.seed": 0, "model.hidden": 1}


def _check_section(section, types: dict, path, name: str = "") -> None:
    """A JSON object whose keys are all known and whose values fit their
    types; anything else is an InputError naming path:name.key."""
    where = f"{path}:{name}" if name else str(path)
    if not isinstance(section, dict):
        raise InputError(f"{where}: expected a JSON object, got {json.dumps(section)}")
    unknown = sorted(set(section) - set(types))
    if unknown:
        prefix = f"{where}." if name else f"{path}:"
        raise InputError(", ".join(prefix + key for key in unknown) + ": unknown key(s)")
    for key, value in section.items():
        if not type_ok(value, types[key]):
            field = f"{name}.{key}" if name else key
            raise InputError(
                f"{path}:{field}: expected {type_name(types[key])}, got {json.dumps(value)}"
            )


def load_run_config(path) -> dict:
    """Parse and validate a train config JSON: every section must be an
    object, unknown keys are errors, and each train/loss/model and
    data.synthetic value must fit the type of the config field or
    generate_synthetic parameter it sets. The run's seed is the top-level
    ``seed``, so ``train.seed`` is an unknown key. Seeds must be at least
    0 and hidden widths at least 1. A violation is an InputError naming
    path:field."""
    import typing

    from .datagen import generate_synthetic
    from .losses import LossConfig
    from .trainer import ModelConfig, TrainConfig

    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    doc = read_json(path)
    _check_section(doc, _TOP_TYPES, path)
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
        types = typing.get_type_hints(cls)
        if section == "train":
            del types["seed"]  # build_run sets it from the top-level seed
        _check_section(doc.get(section, {}), types, path, section)
    for field, least in _AT_LEAST.items():
        value = doc
        for key in field.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        values = value if isinstance(value, list) else [value]
        if value is not None and any(v < least for v in values):
            raise InputError(f"{path}:{field}: must be at least {least}, got {json.dumps(value)}")
    return doc


def load_run(path, seed_override=None):
    """load_run_config and build_run in one: a value that passes the type
    checks but not the code it configures is an InputError naming the
    config file too."""
    doc = load_run_config(path)
    if seed_override is not None:
        _check_seed(seed_override)
    try:
        return build_run(doc, seed_override)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def build_run(doc: dict, seed_override=None):
    """Materialize (dataset, split, spec, configs, seed) from a config doc."""
    from .datagen import load_embeddings, generate_synthetic, make_gcd_split
    from .hierarchy import balanced_hierarchy, load_hierarchy
    from .losses import LossConfig
    from .trainer import ModelConfig, TrainConfig

    seed = doc.get("seed", 0) if seed_override is None else seed_override
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
        seed=data.get("split_seed", seed),
        old_classes=known or None,
    )
    train_cfg = TrainConfig(**doc.get("train", {}), seed=seed)
    loss_cfg = LossConfig(**doc.get("loss", {}))
    model_cfg = ModelConfig(**doc.get("model", {}))
    if model_cfg.proj_dim is not None and model_cfg.proj_dim < spec.levels:
        raise InputError(
            f"model.proj_dim must be at least the level count {spec.levels}, "
            f"got {model_cfg.proj_dim}"
        )
    return dataset, split, spec, train_cfg, loss_cfg, model_cfg, seed


def _cmd_train(args) -> int:
    from .model import save_checkpoint
    from .trainer import train

    dataset, split, spec, train_cfg, loss_cfg, model_cfg, seed = load_run(
        args.config, seed_override=args.seed
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
    final = record.final
    outcome = f"unlabelled ACC all={final['all']:.4f}" if "all" in final else final["note"]
    print(f"trained {train_cfg.epochs} epochs; {outcome} -> {out}")
    return 0


def _labels_by_id(path, hierarchy, spec, check):
    """A label CSV's ids and label rows, sorted by id. check(labels, spec)
    sees the labels in file order; its InputError, which names the first
    bad row and its column, becomes a format error naming the file and
    the hierarchy file spec was read from, since either may be the one at
    fault. A repeated id is an input error naming the file and the id."""
    import numpy as np

    from .datagen import load_labels

    ids, labels = load_labels(path, spec.levels)
    try:
        check(labels, spec)
    except InputError as exc:
        raise DataFormatError(f"{path}: {exc} (hierarchy {hierarchy})") from exc
    order = np.argsort(ids)
    ids = ids[order]
    repeats = np.flatnonzero(ids[1:] == ids[:-1])
    if repeats.size:
        raise InputError(f"{path}: id {str(ids[repeats[0]])!r} appears more than once")
    return ids, labels[order]


def _check_predicted(labels, spec) -> None:
    """Every predicted label names a class of its level, in [0, count)."""
    import numpy as np

    bad = (labels < 0) | (labels >= np.asarray(spec.counts))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value, where = labels[row, col], f"row {row}: level_{col + 1} label"
        if value == -1:
            raise InputError(f"{where} is -1 (unknown); cannot score")
        raise InputError(f"{where} {value} outside [0, {spec.counts[col]})")


def _cmd_eval(args) -> int:
    import numpy as np

    from .datagen import _check_label_consistency
    from .evaluation import evaluate_known
    from .hierarchy import load_hierarchy

    spec, known = load_hierarchy(args.hierarchy)
    # ids are text: a prediction matches the truth row whose id string it repeats
    pred_ids, pred = _labels_by_id(args.pred, args.hierarchy, spec, _check_predicted)
    true_ids, truth = _labels_by_id(args.truth, args.hierarchy, spec, _check_label_consistency)
    if not np.array_equal(pred_ids, true_ids):
        raise InputError(f"{args.pred} and {args.truth} cover different sample ids")
    scored = evaluate_known(truth[:, -1], pred.T, spec, spec, known)
    # the projection's own errors come before any score is printed
    if args.dump_projection:
        _dump_projection(args)
    print(json.dumps(scored.get("levels", scored), indent=2, sort_keys=True))
    return 0


def _dump_projection(args) -> None:
    """PCA the checkpointed model's aggregated features to two columns
    for external plotting: one row per features row, its id as the file
    gives it (CSV-quoted where it needs to be) and the two coordinates
    as float reprs. The payload must pass ``model.check_payload``, and the
    encoder runs through ``trainer.encode``, as predictions do."""
    import csv

    import numpy as np

    from .datagen import _load_embeddings_and_ids
    from .model import check_payload, load_checkpoint
    from .trainer import encode

    if not args.features or not args.checkpoint:
        raise InputError("--dump-projection needs --features and --checkpoint")
    state, meta = load_checkpoint(args.checkpoint)
    check_payload(args.checkpoint, meta)
    _, dataset, ids = _load_embeddings_and_ids(args.features, args.hierarchy)
    if dataset.dim != state.in_dim:
        raise InputError(
            f"{args.features} has {dataset.dim} feature columns, the checkpoint "
            f"{args.checkpoint} takes {state.in_dim}"
        )
    try:
        (z,) = encode(state, dataset.features, lambda trace: [trace.z_hat])
    except NumericError as exc:
        raise NumericError(f"checkpoint {args.checkpoint} on {args.features}: {exc}") from exc
    z -= z.mean(axis=0)
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    proj = z @ vt[:2].T
    # ids are free text: the writer quotes one holding a comma or a quote
    with open(args.dump_projection, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "x", "y"])
        for ident, (x, y) in zip(ids, proj.tolist()):
            writer.writerow([ident, repr(x), repr(y)])


def _cmd_verify_theory(args) -> int:
    from .theory import run_verification

    if args.trials < 1:
        raise InputError(f"--trials must be positive, got {args.trials}")
    _check_seed(args.seed)
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
    try:
        text = metrics_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{metrics_path}: not UTF-8 text ({exc})") from exc
    entries = []
    for line_num, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{metrics_path}: line {line_num}"
        entry = parse_json(line, where)
        if not isinstance(entry, dict):
            raise DataFormatError(f"{where}: expected a JSON object, got {line.strip()}")
        # type() and not isinstance(), so that a bool is neither an epoch nor a number
        epoch = entry.get("epoch")
        if type(epoch) is not int:
            raise DataFormatError(f"{where}: 'epoch' must be an integer, got {json.dumps(epoch)}")
        for key, value in entry.items():
            if (key.startswith("loss_") or key in ("lr", "lambda_c")) and type(value) not in (
                int, float
            ):
                raise DataFormatError(f"{where}: {key!r} must be a number, got {json.dumps(value)}")
        entries.append(entry)
    if not entries:
        raise InputError(f"{metrics_path}: no metric entries")

    loss_keys = sorted({k for e in entries for k in e if k.startswith("loss_")})
    columns = ["epoch", *loss_keys, "lr", "lambda_c"]
    curves_path = run_dir / "curves.csv"
    with open(curves_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for e in entries:  # a missing value is an empty cell
            fh.write(",".join(repr(e[k]) if k in e else "" for k in columns) + "\n")

    summary = {"epochs": len(entries), "last_epoch": entries[-1]}
    final_path = run_dir / "final.json"
    if final_path.exists():
        final_doc = read_json(final_path)
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
