"""Command-line interface.

Subcommands: ``train-wm``, ``train-embedder``, ``embed``, ``extract``,
``watermark-dataset``, ``sweep``, ``verify``. All take ``--config <path>``
(plain-text key=value) where configuration applies, and ``--seed`` overrides
the config seed. The keys of ``train-wm``, ``train-embedder``, ``sweep`` and
``verify`` are the fields of ``pipeline.TrainConfig``,
``bioeval.EmbedderTrainConfig``, ``pipeline.SweepSpec`` and
``pipeline.VerifyOptions``; a bad key or value is a usage error that names
the config file, reported before any image is read. ``train-embedder`` reads
the channel count of its first manifest image (P6: 3, P5: 1) and expects it
of every image.
Exit codes: 0 success, 1 usage error, 2 runtime failure. Messages go to
standard error; data goes to files or standard output only.

The ``facemark`` command imports the package before numpy, so BLAS runs on
one thread whatever ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` say: the package overrides them. Training spreads each
batch over the usable cores instead, and its output files are byte-identical
on any core count. A program that imports numpy first and calls
:func:`cli_dispatch` keeps numpy's BLAS threads, and with them bits that can
vary with the thread count.

Importing the package also sets three glibc allocator parameters through
``mallopt``, overriding any ``MALLOC_*`` environment value as the BLAS pin
overrides its variables, so memory numpy frees stays mapped for the next
training step or call instead of being faulted in again page by page:
``M_MMAP_THRESHOLD`` at 32 MiB (glibc's ceiling for its dynamic threshold)
serves every array at the default shapes from the heap, ``M_TRIM_THRESHOLD``
at 1 GiB keeps a freed heap top mapped, and ``M_ARENA_MAX`` at 1 makes the
pool's threads share that heap, which keeps a sweep's peak RSS where it
was. One ``verify`` call at the benchmark's shape goes from ~2,300 minor
page faults to 0, and one default training step from ~23,000 to 0. The
settings take effect whenever facemark is imported, before or after numpy,
apply on glibc only, and change no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bioeval, containers, imageops, msgcodec, pipeline
from . import watermarknet as wm


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="facemark", description="Invisible watermarking and verification toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("train-wm", help="train the watermark encoder/decoder")
    p.add_argument("--config", required=True, help="key=value training configuration")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--history", default=None, help="write per-step metrics CSV here")
    p.add_argument("--checkpoint-dir", default=None,
                   help="write checkpoint_step<N>.wmf here every checkpoint_interval steps "
                        "(a config key; 0, the default, writes none), for extract/sweep/evaluation; "
                        "training cannot resume from one (no Adam state is saved)")
    p.add_argument("manifest", help="training image manifest (path,identity CSV)")
    p.add_argument("out_model", help="output model file (WMF1)")

    p = sub.add_parser("train-embedder", help="train the toy verification embedder")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--history", default=None, help="write per-epoch loss CSV here")
    p.add_argument("manifest")
    p.add_argument("out_model", help="output embedder file (EMB1)")

    p = sub.add_parser("embed", help="embed a message into one image")
    p.add_argument("--model", required=True)
    _message_flags(p)
    p.add_argument("in_image")
    p.add_argument("out_image")

    p = sub.add_parser("extract", help="extract the message from one image")
    p.add_argument("--model", required=True)
    p.add_argument("in_image")

    p = sub.add_parser("watermark-dataset", help="watermark every image in a manifest")
    p.add_argument("--model", required=True)
    _message_flags(p)
    p.add_argument("manifest")
    p.add_argument("out_dir")

    p = sub.add_parser("sweep", help="bit-accuracy robustness sweep over transforms")
    p.add_argument("--config", default=None, help="sweep grids and repetitions")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", required=True)
    _message_flags(p)
    p.add_argument("manifest")
    p.add_argument("out_csv")

    p = sub.add_parser("verify", help="genuine/imposter verification reports")
    p.add_argument("--config", default=None, help="far targets, modes, sampling")
    p.add_argument("--seed", type=int, default=None)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--embeddings", help="embedding file (identity,source,values)")
    source.add_argument("--embedder", help="EMB1 embedder to apply to manifests")
    p.add_argument("paths", nargs="+", help="manifests (embedder mode), then the output report path")

    return parser


def _message_flags(parser):
    """The ``--message``/``--signature`` pair, of which a command takes exactly one."""
    message = parser.add_mutually_exclusive_group(required=True)
    message.add_argument("--message", help="bit string, e.g. 0110...")
    message.add_argument("--signature", help="signature bitmap file")


def _config(cls, args):
    """``cls`` built from the ``--config`` file (defaults when there is none) and ``--seed``."""
    if args.config is not None and not Path(args.config).is_file():
        raise UsageError(f"config file not found: {args.config}")
    try:
        mapping = pipeline.read_config(args.config) if args.config is not None else {}
        return pipeline.parse_config(cls, mapping, seed_override=args.seed)
    except ValueError as exc:
        message = str(exc)
        if args.config is not None and args.config not in message:
            message += f" (config {args.config})"
        raise UsageError(message) from exc


def _message_for_model(args, model):
    if args.message is not None:
        msg = msgcodec.parse_bits(args.message)
    else:
        msg = msgcodec.bitmap_to_message(msgcodec.load_signature(args.signature))
    return msgcodec.validate_message(msg, model.config.message_length)


def _cmd_train_wm(args):
    config = _config(pipeline.TrainConfig, args)
    manifest = pipeline.load_manifest(args.manifest)
    images = pipeline.load_manifest_images(manifest, config.image_channels)
    print(f"training on {len(manifest)} images for {config.steps} steps", file=sys.stderr)
    model, history = pipeline.train_watermark(config, images, checkpoint_dir=args.checkpoint_dir)
    wm.save_model(model, args.out_model)
    if args.history:
        pipeline.write_history(history, args.history)
    last = history[-1]
    print(
        f"done: bit_acc={last['bit_acc']:.4f} psnr={last['psnr']:.2f} dB "
        f"recon={last['recon_loss']:.3e} decode={last['decode_loss']:.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_train_embedder(args):
    config = _config(bioeval.EmbedderTrainConfig, args)
    manifest = pipeline.load_manifest(args.manifest)
    images = pipeline.load_manifest_images(manifest, imageops.image_channels(manifest.absolute_paths()[0]))
    identities = [identity for _, identity in manifest.entries]
    model, history = bioeval.train_embedder(images, identities, config)
    bioeval.save_embedder(model, args.out_model)
    if args.history:
        containers.write_lines(args.history, ["epoch,loss", *(f"{i},{loss!r}" for i, loss in enumerate(history, 1))])
    print(f"done: {len(history)} epochs, final loss {history[-1]:.4f}", file=sys.stderr)
    return 0


def _cmd_embed(args):
    model = wm.load_model(args.model)
    msg = _message_for_model(args, model)
    image = imageops.load_image(args.in_image, model.config.image_channels)
    marked = wm.encode(model, image, msg)
    imageops.save_image(marked, args.out_image)
    return 0


def _cmd_extract(args):
    model = wm.load_model(args.model)
    image = imageops.load_image(args.in_image, model.config.image_channels)
    message = wm.extract(model, image)
    print(msgcodec.format_bits(message))
    return 0


def _cmd_watermark_dataset(args):
    model = wm.load_model(args.model)
    msg = _message_for_model(args, model)
    manifest = pipeline.load_manifest(args.manifest)
    result = pipeline.watermark_dataset(model, manifest, msg, args.out_dir)
    for path, reason in result.failed:
        print(f"skipped {path}: {reason}", file=sys.stderr)
    print(f"written: {result.written}")
    print(f"mean_psnr: {result.mean_psnr!r}")
    return 0


def _cmd_sweep(args):
    spec = _config(pipeline.SweepSpec, args)
    model = wm.load_model(args.model)
    msg = _message_for_model(args, model)
    manifest = pipeline.load_manifest(args.manifest)
    cells = pipeline.run_sweep(model, manifest, msg, spec)
    for cell in cells:
        if cell.reason:
            print(f"cell ({cell.kind}, {cell.factor}) failed: {cell.reason}", file=sys.stderr)
    pipeline.write_sweep_csv(cells, args.out_csv)
    return 0


def _cmd_verify(args):
    options = _config(pipeline.VerifyOptions, args)
    if args.embeddings is not None:
        if len(args.paths) != 1:
            raise UsageError("with --embeddings, pass only the output report path")
        embeddings = bioeval.load_embeddings(args.embeddings)
        out_path = args.paths[0]
    else:
        if len(args.paths) < 2:
            raise UsageError("with --embedder, pass at least one manifest and the output report path")
        embedder = bioeval.load_embedder(args.embedder)
        out_path = args.paths[-1]
        embeddings = []
        for manifest_path in args.paths[:-1]:
            manifest = pipeline.load_manifest(manifest_path)
            images = pipeline.load_manifest_images(manifest, embedder.config.image_channels)
            identities = [identity for _, identity in manifest.entries]
            embeddings.extend(bioeval.embed_images(embedder, images, identities, source=manifest.source_tag))
    reports = pipeline.run_verification(embeddings, options)
    skipped = {r.pairing: r.skipped_identities for r in reports if r.skipped_identities}
    for mode, count in skipped.items():
        print(f"pairing {mode}: skipped {count} identities with too few images", file=sys.stderr)
    subsampled = {r.pairing: (r.imposter_count, r.imposter_candidates) for r in reports
                  if r.imposter_candidates > r.imposter_count}
    for mode, (scored, candidates) in subsampled.items():
        print(f"pairing {mode}: scored {scored} of {candidates} imposter pairs (max_imposter={options.max_imposter})",
              file=sys.stderr)
    for report in reports:
        if report.error:
            print(f"report ({report.pairing}, far={report.far_target}) incomplete: {report.error}", file=sys.stderr)
    pipeline.write_reports(reports, out_path)
    return 0


_COMMANDS = {
    "train-wm": _cmd_train_wm,
    "train-embedder": _cmd_train_embedder,
    "embed": _cmd_embed,
    "extract": _cmd_extract,
    "watermark-dataset": _cmd_watermark_dataset,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def cli_dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'facemark --help' for usage", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code else 0
    except (ValueError, OSError, RuntimeError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
