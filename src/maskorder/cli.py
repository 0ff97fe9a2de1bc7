"""Command-line interface tying the pipeline together.

Subcommands: gen-data, label, train, sample, analyze-merge, sweep, replay,
self-bleu. `analyze-merge` is the CLI's merge oracle: it reports each
reference trajectory's merged step count, and `merge.merge_trajectory`
returns the merged trajectories themselves. A JSON object passed via
--config supplies checked defaults for any long option of the chosen
subcommand (command-line flags win). `gen-data` is the baseline decode,
`sample` the indicator-gated one, and `replay` re-decodes each record with
the sampler the record names. Decoding is random (categorical sampling)
exactly when --temperature is given. A malformed or missing input file ends
the command with exit 1 and one error line naming the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import harness
from .core import SampleRecord, final_tokens, load_records, save_records
from .denoiser import DenoiserError, MarkovDenoiser, MarkovModel, ReplayDenoiser, TemperedDenoiser
from .indicator import (
    CheckpointError,
    IndicatorConfig,
    IndicatorModel,
    TrainHyper,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .labeling import LabelingConfig, build_dataset, load_dataset, save_dataset
from .merge import final_results_preserving, merge_trajectory
from .ni_sampler import NIConfig
from .orders import RULES, DecodeConfig, decode


def _add_denoiser_args(p):
    p.add_argument("--denoiser", required=True, help="Markov model JSON config")
    p.add_argument("--dtemp", type=float, default=None, help="tempering temperature")
    p.add_argument("--dnoise", type=float, default=0.0, help="tempering noise scale")
    p.add_argument("--dseed", type=int, default=0, help="tempering noise seed")


def _build_denoiser(args):
    model = MarkovModel.load(args.denoiser)
    den = MarkovDenoiser(model)
    if args.dtemp is not None or args.dnoise:
        den = TemperedDenoiser(
            den,
            temperature=1.0 if args.dtemp is None else args.dtemp,
            noise_scale=args.dnoise,
            seed=args.dseed,
        )
    return model, den


def _load_references(path, vocab, source):
    """The records of trajectory file `path`; DenoiserError naming the file
    and the record when a record's vocabulary is not `vocab`, that of
    `source` (the chain or log the command reads them with)."""
    records = load_records(path)
    for rec in records:
        if rec.vocab != vocab:
            raise DenoiserError(f"{path}: record {rec.id!r} has vocab_size {rec.vocab.size}, {source} has V={vocab.size}")
    return records


def _decode_cfg(args, sampler, seed):
    """The decode of every command: full-step for sampler "full", else
    threshold mode at --epsilon (NI's base sampler included)."""
    threshold = None if sampler == "full" else args.epsilon
    return DecodeConfig(rule=args.rule, threshold=threshold, temperature=getattr(args, "temperature", None), seed=seed)


def cmd_label(args):
    model, den = _build_denoiser(args)
    for flag, value in (("--k1", args.k1), ("--k2", args.k2)):  # V is known only once the chain is loaded
        if not 1 <= value <= model.V:
            args.usage_error(f"invalid value {value} for {flag}: must lie in 1..{model.V}, the chain's vocabulary size")
    records = _load_references(args.traj, den.vocab, f"the chain {args.denoiser}")
    rng = np.random.default_rng(args.seed)
    cfg = LabelingConfig(k1=args.k1, k2=args.k2, min_pos_prob=args.min_pos_prob)
    ds = build_dataset(records, den, args.cuts, rng, cfg)
    save_dataset(ds, args.out)
    print(
        f"wrote {len(ds.columns['label'])} examples to {args.out} "
        f"(positive fraction {ds.positive_fraction:.3f})"
    )


def cmd_train(args):
    ds = load_dataset(args.data)
    cfg = IndicatorConfig(
        vocab_size=ds.config["V"],
        k1=ds.config["K1"],
        k2=ds.config["K2"],
        feature_dim=ds.config["F"],
        emb_dim=args.emb_dim,
        hidden_dim=args.hidden_dim,
        depth=args.depth,
    )
    rng = np.random.default_rng(args.seed)
    model = IndicatorModel.init(cfg, rng)
    hyper = TrainHyper(lr=args.lr, batch_size=args.batch, epochs=args.epochs)
    trained, history = train(model, ds, hyper, rng)
    save_checkpoint(trained, args.out)
    print(
        f"trained {trained.num_params} parameters for {len(history)} epochs; "
        f"final: {json.dumps(history[-1])}"
    )


def cmd_sample(args):
    """`gen-data`, the baseline decode, and `sample`, the indicator-gated one over the threshold base."""
    model, den = _build_denoiser(args)
    cfg = _decode_cfg(args, "threshold" if args.command == "sample" else args.sampler, args.seed)
    indicator = ni_cfg = None
    if args.command == "sample":
        indicator = load_checkpoint(args.ckpt, den.vocab.size, den.feature_dim)
        ni_cfg = NIConfig(base=cfg, eps_phi=args.eps_phi)
    records = harness.gen_data(
        den,
        model,
        prompt_len=args.prompt_len,
        gen_len=args.gen_len,
        count=args.count,
        cfg=cfg,
        seed=args.seed,
        indicator=indicator,
        ni_cfg=ni_cfg,
    )
    save_records(records, args.out)
    print(f"wrote {len(records)} trajectories to {args.out}")


def cmd_analyze_merge(args):
    _, den = _build_denoiser(args)
    records = _load_references(args.traj, den.vocab, f"the chain {args.denoiser}")
    with open(args.report, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "original_steps", "merged_steps", "speedup", "preserved"])
        for rec in records:
            fn = merge_trajectory if args.mode == "traj" else final_results_preserving
            _, report = fn(rec.trajectory, rec.base(), den)
            writer.writerow(
                [
                    rec.id,
                    report.original_steps,
                    report.merged_steps,
                    f"{report.speedup:.6f}",
                    str(report.preserved).lower(),
                ]
            )
    print(f"wrote merge report for {len(records)} trajectories to {args.report}")


def cmd_sweep(args):
    model, den = _build_denoiser(args)
    indicator = load_checkpoint(args.ckpt, den.vocab.size, den.feature_dim)
    rows, summary = harness.sweep(
        den,
        model,
        indicator,
        prompt_len=args.prompt_len,
        gen_len=args.gen_len,
        count=args.count,
        seed=args.seed,
        timings=args.timings,
    )
    harness.write_sweep_csv(rows, args.out)
    with open(args.summary, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(
        f"wrote {len(rows)} sweep rows to {args.out}; "
        f"{summary['ni_points_dominating']} NI points dominate "
        f"(pareto_ok={summary['pareto_ok']})"
    )


def cmd_replay(args):
    den = ReplayDenoiser(args.log)
    references = _load_references(args.traj, den.vocab, f"the log {args.log}")
    for ref in references:  # every record is checked before any is decoded
        if (sampler := ref.trajectory.meta["sampler"]) not in ("full", "threshold"):
            raise ValueError(f"{args.traj}: record {ref.id!r} has sampler {sampler!r}, not full or threshold")
    mismatches = 0
    records = []
    for ref in references:
        cfg = _decode_cfg(args, ref.trajectory.meta["sampler"], ref.trajectory.meta["seed"])
        try:
            traj = decode(den, ref.prompt, ref.gen_len, cfg)
        except DenoiserError as exc:
            raise DenoiserError(f"record {ref.id!r}: {exc}") from None
        records.append(SampleRecord(ref.id, ref.vocab, ref.prompt, ref.gen_len, traj))
        if traj.steps != ref.trajectory.steps:
            mismatches += 1
    if args.out:
        save_records(records, args.out)
    print(f"replayed {len(records)} trajectories; {mismatches} differ from the input file")
    if mismatches:
        sys.exit(1)


def cmd_self_bleu(args):
    records = load_records(args.traj)
    samples = [final_tokens(r.trajectory) for r in records]
    try:
        value = harness.self_bleu(samples, n_gram=args.n)
    except ValueError as exc:
        raise ValueError(f"{args.traj}: {exc}") from None
    print(f"self-bleu-{args.n}: {value:.6f}")


def build_parser():
    """The CLI parser: one subparser per subcommand."""
    parser = argparse.ArgumentParser(prog="maskorder")
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-data", help="decode sampled prompts into a trajectory file")
    _add_denoiser_args(p)
    common(p)
    p.add_argument("--sampler", choices=["full", "threshold"], default="threshold")
    p.add_argument("--rule", choices=RULES, default=DecodeConfig.rule)
    p.add_argument("--epsilon", type=float, default=0.8)
    p.add_argument("--temperature", type=float, default=None, help="sample tokens (random mode)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--prompt-len", type=int, default=8)
    p.add_argument("--gen-len", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("label", help="build indicator training data from trajectories")
    _add_denoiser_args(p)
    common(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--cuts", type=int, default=4)
    p.add_argument("--min-pos-prob", type=float, default=LabelingConfig.min_pos_prob)
    p.add_argument("--k1", type=int, default=LabelingConfig.k1)
    p.add_argument("--k2", type=int, default=LabelingConfig.k2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label, usage_error=p.error)

    p = sub.add_parser("train", help="train the indicator on a labeled dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=TrainHyper.epochs)
    p.add_argument("--lr", type=float, default=TrainHyper.lr)
    p.add_argument("--batch", type=int, default=TrainHyper.batch_size)
    p.add_argument("--emb-dim", type=int, default=IndicatorConfig.emb_dim)
    p.add_argument("--hidden-dim", type=int, default=IndicatorConfig.hidden_dim)
    p.add_argument("--depth", type=int, default=IndicatorConfig.depth)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="decode with the indicator gate over the threshold sampler")
    _add_denoiser_args(p)
    common(p)
    p.add_argument("--rule", choices=RULES, default=DecodeConfig.rule)
    p.add_argument("--epsilon", type=float, default=0.9)
    p.add_argument("--temperature", type=float, default=None, help="sample tokens (random mode)")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--prompt-len", type=int, default=8)
    p.add_argument("--gen-len", type=int, default=32)
    p.add_argument("--ckpt", help="indicator checkpoint (required)")
    p.add_argument("--eps-phi", type=float, default=NIConfig.eps_phi)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze-merge", help="merge analyses over recorded trajectories")
    _add_denoiser_args(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--mode", choices=["traj", "final"], default="traj")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_analyze_merge)

    p = sub.add_parser("sweep", help="threshold and indicator trade-off grids")
    _add_denoiser_args(p)
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--prompt-len", type=int, default=8)
    p.add_argument("--gen-len", type=int, default=32)
    p.add_argument("--timings", action="store_true", help="fill wall_time with measured seconds")
    p.add_argument("--out", required=True)
    p.add_argument("--summary", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="re-decode trajectories from a recorded replay archive")
    p.add_argument("--log", required=True, help="archive written by denoiser.RecordingDenoiser")
    p.add_argument("--traj", required=True)
    p.add_argument("--rule", choices=RULES, default=DecodeConfig.rule)
    p.add_argument("--epsilon", type=float, default=0.8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("self-bleu", help="diversity of final sequences in a trajectory file")
    p.add_argument("--traj", required=True)
    p.add_argument("--n", type=int, choices=[1, 2], default=1)
    p.set_defaults(func=cmd_self_bleu)
    return parser


def _config_value(action, value):
    """A --config value converted and checked as if it were given as the flag."""
    if action.nargs == 0:  # store_true
        if type(value) is not bool:
            raise ValueError("expected true or false")
        return value
    if not (isinstance(value, str) or (action.type and type(value) in (int, float))):
        raise ValueError("expected a string" + (" or a number" if action.type else ""))
    value = (action.type or str)(str(value))
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {list(action.choices)}")
    return value


def _apply_config(parser, command: str, path) -> None:
    """Make the JSON object in `path` defaults of the chosen subcommand; keys
    that are not its options are ignored, a bad value is a usage error."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"--config {path}: expected a JSON object, got {type(config).__name__}")
    values = {key.replace("-", "_"): value for key, value in config.items()}
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    for action in sub._actions:
        if action.option_strings and action.dest in values:
            value = values[action.dest]
            try:
                sub.set_defaults(**{action.dest: _config_value(action, value)})
            except ValueError as exc:
                parser.error(f"--config {path}: invalid value {value!r} for {action.option_strings[-1]} ({exc})")


_CHECKED_OPTIONS = {  # option dest -> (the config that checks its value, the field it fills)
    "epsilon": (DecodeConfig, "threshold"),
    "temperature": (DecodeConfig, "temperature"),
    "eps_phi": (NIConfig, "eps_phi"),
    "min_pos_prob": (LabelingConfig, "min_pos_prob"),
    "lr": (TrainHyper, "lr"),
    "batch": (TrainHyper, "batch_size"),
    "epochs": (TrainHyper, "epochs"),
    **{dest: (lambda **kw: IndicatorConfig(vocab_size=8, **kw), dest) for dest in ("emb_dim", "hidden_dim", "depth")},
}


def _check(parser, args) -> None:
    """Reject flag values and combinations that argparse cannot express."""
    if getattr(args, "dtemp", None) is not None and not 0 < args.dtemp < np.inf:
        parser.error(f"--dtemp must be positive and finite, got {args.dtemp}")
    if not 0 <= getattr(args, "dnoise", 0.0) < np.inf:
        parser.error(f"--dnoise must be nonnegative and finite, got {args.dnoise}")
    for dest, least in (("prompt_len", 0), ("seed", 0), ("dseed", 0), ("count", 1), ("gen_len", 1), ("cuts", 1)):
        if getattr(args, dest, least) < least:
            must = "nonnegative" if least == 0 else "positive"
            parser.error(f"invalid value {getattr(args, dest)} for --{dest.replace('_', '-')}: must be {must}")
    for dest, (config, name) in _CHECKED_OPTIONS.items():
        if getattr(args, dest, None) is not None:
            try:
                config(**{name: getattr(args, dest)})
            except ValueError as exc:
                parser.error(f"invalid value {getattr(args, dest)} for --{dest.replace('_', '-')}: {exc}")
    if args.command == "sample" and not args.ckpt:
        parser.error("sample requires --ckpt")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # parse again with the file's values as subcommand defaults, so that
        # every flag given on the command line, abbreviated or not, wins
        _apply_config(parser, args.command, args.config)
        args = parser.parse_args(argv)
    _check(parser, args)
    try:
        args.func(args)
    except (DenoiserError, CheckpointError, ValueError, OSError) as exc:  # each message names its file
        parser.exit(1, f"maskorder {args.command}: error: {exc}\n")


if __name__ == "__main__":
    main()
