"""Command-line entry point: synth, preprocess, pretrain-bae, train, eval,
ablate, assess, gradcheck.

Every command writes exactly one manifest next to its outputs recording
the command, a hash of its configuration, the seed, input/output paths,
the toolkit version and the wall time. Outputs are reproducible from the
manifest byte for byte (wall time aside); no command mutates its inputs.
Each output file is replaced whole, never left half-written, and the
manifest is written last, once every output is in place: an output with
no manifest comes from a run that did not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, bmmn, evaluate, gradcheck, synth
from .bae import PretrainConfig, pretrain
from .errors import (
    BioaffectError,
    ConfigError,
    CorruptionError,
    IngestError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .files import build_config, read_json, write_json, write_lines
from .params import ParamStore, load_params, save_params
from .signals import Channel
from .session_io import list_sessions, read_samples, session_samples, write_samples
from .tensor import Tensor, no_tape

_USAGE_ERRORS = (ValidationError, ConfigError, ParseError, IngestError, ShapeError,
                 CorruptionError, FileNotFoundError, NotADirectoryError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_manifest(command, started, anchor, seed, inputs, outputs, config_hash) -> None:
    anchor = Path(anchor)
    target = anchor / "manifest.json" if anchor.is_dir() else Path(
        str(anchor) + ".manifest.json"
    )
    write_json(target, {
        "command": command,
        "config_sha256": config_hash,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "toolkit_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    })


def _paint(text: str, color: str, plain: bool) -> str:
    if plain or not sys.stdout.isatty():
        return text
    codes = {"green": "32", "red": "31"}
    return f"\x1b[{codes[color]}m{text}\x1b[0m"


# --- handlers ----------------------------------------------------------------
# A handler that writes files returns (anchor, seed, inputs, outputs,
# config_hash) for its manifest, which `dispatch` writes after it returns.


def _cmd_synth(args) -> tuple:
    spec_obj = read_json(args.spec)
    kind = spec_obj.pop("kind", "trials")
    if kind not in ("trials", "therapy"):
        raise ConfigError(f"{args.spec}: unknown synth kind {kind!r}")
    spec_cls = synth.SynthSpec if kind == "trials" else synth.TherapySpec
    spec = build_config(spec_cls, args.spec, spec_obj)
    if args.seed is not None:
        spec.rng_seed = args.seed
    out = Path(args.out)
    if kind == "trials":
        sessions = synth.gen_dataset(spec, out)
    else:
        sessions = [synth.gen_therapy_session(spec, out)]
    print(f"wrote {len(sessions)} session(s) under {out}")
    config_hash = _sha256_text(json.dumps(asdict(spec), sort_keys=True))
    return out, spec.rng_seed, [args.spec], [out], config_hash


def _cmd_preprocess(args) -> tuple:
    corpus = Path(args.input)
    sessions = list_sessions(corpus)
    if not sessions:
        raise IngestError(f"{corpus}: no session directories found")
    all_samples = []
    for session_dir in sessions:
        all_samples.extend(session_samples(session_dir, args.face_size, args.alignment))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_samples(
        out,
        all_samples,
        extra_meta={
            "source": str(corpus),
            "face_size": args.face_size,
            "alignment": args.alignment,
        },
    )
    print(f"wrote {len(all_samples)} samples from {len(sessions)} session(s) to {out}")
    config_hash = _sha256_text(
        json.dumps({"face_size": args.face_size, "alignment": args.alignment},
                   sort_keys=True)
    )
    return out, None, [corpus], [out], config_hash


def _cmd_pretrain_bae(args) -> tuple:
    config = build_config(PretrainConfig, args.config) if args.config else PretrainConfig()
    if args.seed is not None:
        config.seed = args.seed
    samples = read_samples(args.data)
    if not samples:
        raise IngestError(f"{args.data}: no samples")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    merged = ParamStore(rng_seed=config.seed)
    curve_lines = ["channel,epoch,loss"]
    models = {}
    for ch in (Channel.ECG, Channel.EDA):
        windows = [s.segments[ch].window for s in samples]
        result = pretrain(
            windows,
            ch,
            epochs=config.epochs,
            seed=config.seed,
            lr=config.lr,
            batch_size=config.batch_size,
        )
        merged.entries.update(result.model.store.entries)
        models[ch] = result.model
        for epoch, loss in enumerate(result.losses):
            curve_lines.append(f"{ch.value},{epoch},{loss!r}")
        print(
            f"{ch.value}: reconstruction mse {result.losses[0]:.6f} -> "
            f"{result.losses[-1]:.6f} over {config.epochs} epochs"
        )
    save_params(merged, out / "bae.ckpt")
    write_lines(out / "bae_losses.csv", curve_lines)
    if args.dump_latents:
        _dump_latents(models, samples[: args.dump_latents], out)
    # The settings the run used, `--seed` included, whether or not they came from a file.
    config_hash = _sha256_text(json.dumps(asdict(config), sort_keys=True))
    outputs = [out / "bae.ckpt", out / "bae_losses.csv"]
    return out, config.seed, [args.data], outputs, config_hash


def _dump_latents(models: dict, samples: list, out: Path) -> None:
    """Plot-ready CSVs: latent codes plus signal/reconstruction traces."""
    latent_width = next(iter(models.values())).arch.latent
    z_header = "frame_index,channel," + ",".join(f"z{i}" for i in range(latent_width))
    z_lines = [z_header]
    trace_lines = ["frame_index,channel,position,original,reconstructed"]
    for sample in samples:
        for ch, model in models.items():
            window = sample.segments[ch].window
            with no_tape():
                z, indices = model.encode_graph(Tensor(window))
                recon = model.decode_graph(z, indices).data.reshape(-1)
            z_csv = ",".join(repr(float(v)) for v in z.data)
            z_lines.append(f"{sample.frame_index},{ch.value},{z_csv}")
            for pos, (a, b) in enumerate(zip(window, recon)):
                trace_lines.append(
                    f"{sample.frame_index},{ch.value},{pos},{float(a)!r},{float(b)!r}"
                )
    write_lines(out / "latents.csv", z_lines)
    write_lines(out / "reconstructions.csv", trace_lines)


def _load_train_config(args) -> tuple:
    """The run's TrainConfig, with `--variant` and `--seed` applied, and the
    hash of those settings (not of the file they started from)."""
    config = build_config(bmmn.TrainConfig, args.config) if args.config else bmmn.TrainConfig()
    if getattr(args, "variant", None):
        config = replace(config, variant=args.variant)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config, _sha256_text(json.dumps(asdict(config), indent=2, sort_keys=True))


def _cmd_train(args) -> tuple:
    config, config_hash = _load_train_config(args)
    samples = read_samples(args.data)
    bae_values = None
    if config.variant != "bmmn":
        if not args.bae:
            raise ConfigError(
                f"variant {config.variant} needs --bae pointing at a pretrained "
                "auto-encoder directory"
            )
        store = load_params(Path(args.bae) / "bae.ckpt")
        bae_values = {name: t.data for name, t in store.items()}
    result = bmmn.train(samples, config, bae_values=bae_values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bmmn.save_model(result.model, out, config=config)
    write_lines(out / "metrics.csv", bmmn.metrics_csv(result.metrics))
    write_json(out / "split.json", {
        "train_subjects": list(result.train_subjects),
        "eval_subjects": list(result.eval_subjects),
    })
    if result.metrics:
        first, last = result.metrics[0][1], result.metrics[-1][1]
        print(f"train loss {first:.6f} -> {last:.6f} over {config.epochs} epochs")
    inputs = [args.data] + ([args.bae] if args.bae else [])
    return out, config.seed, inputs, [out], config_hash


def _write_report(prefix: Path, payload: dict, rows: list) -> list:
    """`<prefix>.json` holding `payload` and `<prefix>.csv` holding `rows`."""
    prefix.parent.mkdir(parents=True, exist_ok=True)
    json_path = Path(str(prefix) + ".json")
    csv_path = Path(str(prefix) + ".csv")
    write_json(json_path, payload)
    write_lines(csv_path, (",".join(row) for row in rows))
    return [json_path, csv_path]


def _cmd_eval(args) -> tuple:
    model = bmmn.load_model(args.model)
    samples = read_samples(args.data)
    if args.subjects:
        wanted = set(args.subjects.split(","))
        samples = [s for s in samples if s.subject_id in wanted]
    if not samples:
        raise IngestError("no samples selected for evaluation")
    report = evaluate.evaluate_model(model, samples, per_frame=args.per_frame)
    outputs = _write_report(
        Path(args.out), asdict(report), evaluate.report_rows(report)
    )
    print(f"macro average precision: {report.macro_average:.2f}% over n={report.n}")
    config_hash = _sha256_text(
        json.dumps({"per_frame": args.per_frame, "subjects": args.subjects or ""},
                   sort_keys=True)
    )
    return args.out, None, [args.model, args.data], outputs, config_hash


def _cmd_ablate(args) -> tuple:
    config, config_hash = _load_train_config(args)
    samples = read_samples(args.data)
    result = evaluate.ablation_run(samples, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for arm, report in result.reports.items():
        arm_dir = out / arm
        bmmn.save_model(result.models[arm], arm_dir, config=result.configs[arm])
        summary[arm] = asdict(report)
        _write_report(arm_dir / "report", summary[arm], evaluate.report_rows(report))
        print(f"{arm}: macro average {report.macro_average:.2f}%")
    write_json(out / "summary.json", summary)
    return out, config.seed, [args.data], [out], config_hash


def _cmd_assess(args) -> tuple:
    model = bmmn.load_model(args.model)
    samples = session_samples(args.session, model.spec.spatial_arch.side)
    assessment = evaluate.therapy_assess(
        samples, model, window_minutes=args.window_minutes
    )
    report = evaluate.summarize_therapy([assessment])
    # json writes the str-enum quadrants as their values and the movement tuple as a list.
    payload = {**asdict(assessment), "q2_to_q4_count": report.q2_to_q4_count}
    outputs = _write_report(Path(args.out), payload, evaluate.quadrant_rows(report))
    print(
        f"{assessment.patient}: {assessment.pre.quadrant.value} -> "
        f"{assessment.post.quadrant.value}, movement {assessment.magnitude:.3f}"
    )
    config_hash = _sha256_text(json.dumps({"window_minutes": args.window_minutes}))
    return args.out, None, [args.model, args.session], outputs, config_hash


def _cmd_gradcheck(args) -> int:
    """Writes no file, so returns its exit code and gets no manifest."""
    names = [args.op] if args.op else None
    results = gradcheck.run_suite(names=names, seed=args.seed)
    failed = []
    for name, err in results.items():
        ok = err <= gradcheck.DEFAULT_TOLERANCE
        verdict = _paint("PASS", "green", args.plain) if ok else _paint(
            "FAIL", "red", args.plain
        )
        print(f"{name:24s} max relative error {err:.3e}  {verdict}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"gradcheck failed for: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bioaffect", description=__doc__)
    parser.add_argument("--plain", action="store_true", help="plain output, no color")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="generator spec (JSON)")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="corpus directory -> processed samples")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True, help="processed sample file")
    p.add_argument("--face-size", type=int, default=64)
    p.add_argument("--alignment", choices=("centered", "leading", "trailing"),
                   default="centered")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("pretrain-bae", help="pretrain the per-channel auto-encoders")
    p.add_argument("--data", required=True, help="processed sample file")
    p.add_argument("--config", default=None, help="pretrain config (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dump-latents", type=int, default=0, metavar="N",
                   help="also write latent and reconstruction CSVs for the "
                        "first N samples")
    p.set_defaults(func=_cmd_pretrain_bae)

    p = sub.add_parser("train", help="train a fusion model")
    p.add_argument("--variant", choices=("bmmn", "bae1", "bae2"), default=None)
    p.add_argument("--data", required=True, help="processed sample file")
    p.add_argument("--config", default=None, help="train config (JSON)")
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--bae", default=None, help="pretrained auto-encoder directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="precision report for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--subjects", default=None, help="comma-separated subject filter")
    p.add_argument("--per-frame", action="store_true",
                   help="score per frame instead of per trial")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="bio-only / face-only / multi-modal comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("assess", help="pre/post window assessment of one session")
    p.add_argument("--model", required=True)
    p.add_argument("--session", required=True, help="raw session directory")
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--window-minutes", type=float, default=15.0)
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--op", default=None, help="run a single named case")
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        _write_manifest(args.command, started, *result)
        return 0
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BioaffectError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    np.seterr(all="raise", under="ignore")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
