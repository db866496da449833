"""Command-line interface.

Subcommands: gen-data, train, eval, predict, gradcheck, ablate. Every
failure prints one machine-parseable line (``ERROR <CODE>: message``) to
stderr and exits nonzero: 2 for configuration problems, 3 for data problems,
4 for verification or numerical failures. The output directory may also be
set through the TRISAL_OUT environment variable; flags win over it.
"""

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import data as D
from . import metrics as MT
from . import model as M
from . import verify
from .config import echo_config, load_config
from .data import _read_pnm, _write_pnm
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    NumericalError,
    ShapeError,
    VerificationError,
    write_bytes,
)


def _run(args):
    """(config, output directory, dataset directory): ``--out``, else TRISAL_OUT,
    else the config's ``out_dir``; ``--data``, else the config's ``data_dir``."""
    cfg = load_config(args.config)
    out = getattr(args, "out", None) or os.environ.get("TRISAL_OUT") or cfg.out_dir
    return cfg, out, getattr(args, "data", None) or cfg.data_dir


def _map_path(pred_dir, clip, i):
    """Where ``predict`` writes, and ``eval --pred-dir`` reads, frame ``i``'s map of ``clip``."""
    return os.path.join(pred_dir, clip, f"{i:04d}.pgm")


def _read_dataset(path, config):
    """The clips at ``path``; frames other than ``config.input_size`` square are a config error."""
    clips = D.read_dataset(path)
    for clip in clips:
        if clip.spec.size != config.input_size:
            raise ConfigError(f"{clip.name}: {clip.spec.size} px frames, but the model's input_size is {config.input_size}")
    return clips


def _write_loss_log(path, rows):
    lines = (",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n" for row in rows)
    write_bytes(path, [b"step,loss,l1,l2,l3,l4,l5\n", *(line.encode() for line in lines)])


def _predict_clip(model, clip):
    """Per-frame full-resolution saliency maps for one clip."""
    batch = M.make_batch(clip.samples, range(len(clip.samples)))
    probs = M.predict(model, batch[0], batch[1], batch[2])
    return [probs[i, 0] for i in range(probs.shape[0])]


def _sequences_from_model(model, clips):
    for clip in clips:
        preds = _predict_clip(model, clip)
        yield clip.name, [(pred, s.gt[0]) for pred, s in zip(preds, clip.samples)]


def cmd_gen_data(args):
    cfg, out, _ = _run(args)
    echo_config(cfg, out)
    specs = cfg.specs()
    D.write_dataset(D.iter_dataset(specs), out)  # one clip in memory at a time
    print(f"wrote {len(specs)} clips to {out}")
    return 0


def cmd_train(args):
    cfg, out, data = _run(args)
    clips = _read_dataset(data, cfg.model)
    echo_config(cfg, out)
    model = M.build(cfg.model)
    rows = M.fit(model, [s for clip in clips for s in clip.samples], cfg.model)
    _write_loss_log(os.path.join(out, "loss_log.csv"), rows)
    M.save_checkpoint(os.path.join(out, "checkpoint"), model, step=len(rows))
    print(f"trained {cfg.model.variant} for {len(rows)} steps; final loss {rows[-1][1]:.6f}")
    return 0


def cmd_eval(args):
    if bool(args.checkpoint) == bool(args.pred_dir):
        raise ConfigError("eval needs exactly one of --checkpoint and --pred-dir")
    _, out, data = _run(args)
    if args.pred_dir:
        # the maps are scored against the masks alone
        sequences = []
        for name, masks in D.read_masks(data):
            frames = []
            for i, gt in enumerate(masks):
                p = _map_path(args.pred_dir, name, i)
                frames.append((_read_pnm(p, "P5", gt.shape[0]).astype(np.float64) / 255.0, gt))
            sequences.append((name, frames))
    else:
        model, _ = M.load_checkpoint(args.checkpoint)
        sequences = _sequences_from_model(model, _read_dataset(data, model.config))
    report = MT.evaluate_sequences(sequences)
    report.write_csv(os.path.join(out, "report.csv"))
    report.write_json(os.path.join(out, "report.json"))
    agg = report.aggregate
    print(f"max_f {agg['max_f']:.4f} s_measure {agg['s_measure']:.4f} mae {agg['mae']:.4f}")
    return 0


def cmd_predict(args):
    _, out, data = _run(args)
    model, _ = M.load_checkpoint(args.checkpoint)
    clips = _read_dataset(data, model.config)
    pred_dir = os.path.join(out, "pred")
    for clip in clips:
        for i, pred in enumerate(_predict_clip(model, clip)):
            _write_pnm(
                _map_path(pred_dir, clip.name, i),
                np.round(pred * 255.0).astype(np.uint8),
                "P5",
            )
    print(f"wrote predictions for {len(clips)} clips under {pred_dir}")
    return 0


def cmd_gradcheck(args):
    checks = verify.run_scope(args.scope)
    failures = 0
    width = max(len(name) for name, _, _ in checks)
    for name, err, tol in checks:
        ok = err <= tol
        failures += 0 if ok else 1
        print(f"{name:<{width}}  rel_err {err:.3e}  tol {tol:.0e}  {'PASS' if ok else 'FAIL'}")
    if failures:
        raise VerificationError(f"{failures} of {len(checks)} gradient checks failed in scope {args.scope}")
    print(f"all {len(checks)} checks passed in scope {args.scope}")
    return 0


def cmd_ablate(args):
    cfg, out, data = _run(args)
    clips = _read_dataset(data, cfg.model)
    samples = [s for clip in clips for s in clip.samples]
    eval_clips = _read_dataset(args.eval_data, cfg.model) if args.eval_data else clips
    echo_config(cfg, out)
    log_dir = os.path.join(out, "logs")
    results = []
    for variant, label in M.VARIANT_LABELS.items():
        vcfg = dataclasses.replace(cfg.model, variant=variant)
        model = M.build(vcfg)
        rows = M.fit(model, samples, vcfg)
        _write_loss_log(os.path.join(log_dir, f"{label}_loss.csv"), rows)
        report = MT.evaluate_sequences(_sequences_from_model(model, eval_clips))
        agg = report.aggregate
        results.append((label, agg["max_f"], agg["s_measure"], agg["mae"]))
        print(f"{label}: max_f {agg['max_f']:.4f} s_measure {agg['s_measure']:.4f} mae {agg['mae']:.4f}")
    table_path = os.path.join(out, "ablation.csv")
    rows = (f"{label},{f:.6f},{s:.6f},{e:.6f}\n".encode() for label, f, s, e in results)
    write_bytes(table_path, [b"variant,max_f,s_measure,mae\n", *rows])
    print(f"wrote {table_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trisal",
        description="Trimodal video salient object detection at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic trimodal dataset")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--out", help="output dataset directory")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--out", help="output directory for checkpoint and logs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or prediction maps")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--checkpoint", help="checkpoint file")
    p.add_argument("--pred-dir", help="directory of predicted maps (pred/<clip>/NNNN.pgm)")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--out", help="output directory for the report")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="write 8-bit saliency maps for a dataset")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--scope", choices=("ops", "blocks", "model"), default="ops")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and report all model variants")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--data", help="training dataset directory")
    p.add_argument("--eval-data", help="held-out dataset directory (defaults to --data)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_ablate)
    return parser


# ``main`` parses with one parser per process: ``parse_args`` leaves it as it was.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, ShapeError) as exc:
        print(f"ERROR CONFIG: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"ERROR DATA: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, NumericalError) as exc:
        print(f"ERROR VERIFY: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
