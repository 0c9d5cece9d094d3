"""Batch command-line front end: extract, fit-stats, score, evaluate, synth, suite."""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import os
import sys

from .audio_io import load_audio, save_wav
from .errors import AudioIOError, ManifestError, OutputError, StatsError, VoiceQualityError
from .evaluation import (
    NEUTRAL_LABEL,
    SUITE_QUALITY,
    LabeledSample,
    PairwiseEvalReport,
    build_synthetic_suite,
    evaluate_pairs,
    form_pairs,
    format_report,
    read_manifest,
    synthetic_suite_pairs,
)
from .llf import extract_llf_vector
from .quality import load_table, score_all
from .stats import fit_stats, load_stats, save_stats, stats_text
from .synth import KINDS, generate_synthetic

STATS_ENV_VAR = "VOICEQUAL_STATS"

EXIT_CODES_HELP = (
    "exit codes: 0 success, 1 unexpected error, 2 usage, 3 audio input, "
    "4 insufficient voicing, 5 statistics, 6 correlation table, 7 manifest, "
    "8 output file"
)


def _collect_audio_paths(inputs: list[str]) -> list[str]:
    """The inputs in order, each directory replaced by its .wav files,
    sorted; a directory without one is an AudioIOError naming it."""
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            wavs = sorted(os.path.join(item, name) for name in os.listdir(item)
                          if name.lower().endswith(".wav"))
            if not wavs:
                raise AudioIOError(f"{item}: no .wav file in the directory")
            paths.extend(wavs)
        else:
            paths.append(item)
    return paths


def _extract_each(paths: list[str], skip: bool = False):
    """Yield (path, LLF vector) per file, in input order, one file at a time.

    A failing file's error is raised again, of the same class, with its path
    in front (load_audio's errors lead with it already); with ``skip`` it is
    printed as one warning line instead, and the file is left out.
    """
    for path in paths:
        try:
            signal = load_audio(path)
            try:
                vector = extract_llf_vector(signal)
            except VoiceQualityError as exc:
                raise type(exc)(f"{path}: {exc}") from exc
        except VoiceQualityError as exc:
            if not skip:
                raise
            print(f"warning: skipping {exc}", file=sys.stderr)
        else:
            yield path, vector


@contextlib.contextmanager
def _writing(path):
    """Map an OSError raised while writing ``path`` to OutputError naming it."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from None


def _refuse_input(path: str, inputs) -> None:
    """Raise OutputError if ``path`` is an existing file that is one of
    ``inputs`` (None, for an optional input not given, is skipped)."""
    if os.path.isfile(path) and any(p is not None and os.path.isfile(p)
                                    and os.path.samefile(p, path) for p in inputs):
        raise OutputError(f"cannot write {path}: it is one of the inputs")


def _check_writable(path: str) -> None:
    """Raise OutputError naming ``path`` if it is a directory or its
    directory is missing or not writable; neither creates nor truncates it."""
    parent = os.path.dirname(path) or "."
    with _writing(path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _open_output(path: str | None, inputs=()):
    """The file at ``path``, truncated now, or stdout for None or "-".

    An existing file that is one of ``inputs`` is refused, not truncated.
    """
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    _refuse_input(path, inputs)
    with _writing(path):
        return open(path, "w", encoding="utf-8")


def cmd_extract(args) -> int:
    paths = _collect_audio_paths(args.inputs)
    with _open_output(args.output, paths) as out:
        for path, vector in _extract_each(paths):
            print(json.dumps({"source": path, **vector}), file=out, flush=True)
    return 0


def cmd_fit_stats(args) -> int:
    paths = ([path for path, _ in read_manifest(args.manifest)] if args.manifest
             else _collect_audio_paths(args.inputs))
    to_stdout = args.output == "-"
    if not to_stdout:
        _refuse_input(args.output, [args.manifest, *paths])
        _check_writable(args.output)  # written only once every file is extracted
    vectors = [vector for _, vector in _extract_each(paths, skip=bool(args.manifest))]
    stats = fit_stats(vectors, corpus=args.corpus_label)
    if to_stdout:
        sys.stdout.write(stats_text(stats))
    else:
        save_stats(stats, args.output)
    print(f"fitted stats over {len(vectors)} utterances -> {args.output}",
          file=sys.stderr if to_stdout else sys.stdout)
    return 0


def cmd_score(args) -> int:
    stats_path = args.stats or os.environ.get(STATS_ENV_VAR)
    if not stats_path:
        raise StatsError(f"no stats file: pass --stats or set ${STATS_ENV_VAR}")
    stats = load_stats(stats_path)
    table = load_table(args.table)
    paths = _collect_audio_paths(args.inputs)
    with _open_output(args.output, [*paths, stats_path, args.table]) as out:
        for path, vector in _extract_each(paths):
            result = score_all(vector, stats, table)
            record = {"source": path, "scores": result.scores}
            if args.with_contributions:
                record["z_contributions"] = result.z_contributions
            print(json.dumps(record), file=out, flush=True)
    return 0


def cmd_evaluate(args) -> int:
    table = load_table(args.table)
    stats = load_stats(args.stats) if args.stats else None
    if not (args.suite or args.manifest):
        raise ManifestError("evaluate needs --manifest or --suite")
    rows = read_manifest(args.manifest) if args.manifest else []
    if args.output not in (None, "-"):
        _refuse_input(args.output, [args.stats, args.table, args.manifest,
                                    *(path for path, _ in rows)])
        _check_writable(args.output)  # written only once the report exists

    samples = (build_synthetic_suite(args.suite, seed=args.seed) if args.suite
               else [LabeledSample(path, label, vector) for path, label in rows
                     for _, vector in _extract_each([path], skip=True)])
    qualities = sorted({s.dominant_quality for s in samples} - {NEUTRAL_LABEL})
    if not qualities:
        raise ManifestError(f"{args.manifest}: no sample labeled with a quality")
    if stats is None:
        stats = fit_stats([s.llf for s in samples], corpus="evaluation set")

    per_quality = {}
    for quality in qualities:
        per_quality.update(evaluate_pairs(form_pairs(samples, quality), stats, table).per_quality)
    report = PairwiseEvalReport(per_quality)
    print(format_report(report))
    if args.output:
        with _open_output(args.output) as out:
            print(json.dumps({
                "per_quality": {q: {"total_pairs": r.total_pairs,
                                    "correct": r.correct,
                                    "accuracy_percent": r.accuracy_percent}
                                for q, r in report.per_quality.items()},
                "mean_accuracy_percent": report.mean_accuracy_percent,
            }), file=out, flush=True)
    return 0


def cmd_synth(args) -> int:
    signal = generate_synthetic(
        args.kind, f0=args.f0, duration=args.duration, seed=args.seed,
        jitter_pct=args.jitter_pct, shimmer_db=args.shimmer_db,
        noise_ratio=args.noise_ratio)
    with _writing(args.output):
        save_wav(signal, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_suite(args) -> int:
    if args.count < 1:
        raise ManifestError(f"--count must be at least 1, got {args.count}")
    manifest = os.path.join(args.output_dir, "manifest.csv")
    pairs = synthetic_suite_pairs(args.kind, args.count, args.seed)
    pairs = itertools.chain([next(pairs)], pairs)  # a bad argument raises here
    with _writing(args.output_dir):
        os.makedirs(args.output_dir, exist_ok=True)
        with open(manifest, "w", encoding="utf-8") as fh:
            for i, (pos, neg) in enumerate(pairs):
                for signal, name, label in (
                        (pos, f"{args.kind}_{i:02d}.wav", SUITE_QUALITY[args.kind]),
                        (neg, f"clean_{i:02d}.wav", NEUTRAL_LABEL)):
                    save_wav(signal, os.path.join(args.output_dir, name))
                    fh.write(f"{name},{label}\n")
    print(f"wrote {2 * args.count} files and {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voicequal",
        description="Objective voice-quality scoring from speech audio.",
        epilog=EXIT_CODES_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute the 25 low-level features per file")
    p.add_argument("inputs", nargs="+", help="WAV files or directories")
    p.add_argument("--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_extract)

    # usage spelled out: argparse leaves out a group that holds a positional
    p = sub.add_parser("fit-stats", help="fit reference statistics over a corpus",
                       usage="%(prog)s [-h] [inputs ... | --manifest MANIFEST] "
                             "--output OUTPUT [--corpus-label CORPUS_LABEL]")
    source = p.add_mutually_exclusive_group()
    # default=[]: argparse counts the [] of an absent "*" positional as given unless it is the default
    source.add_argument("inputs", nargs="*", default=[], help="WAV files or directories")
    source.add_argument("--manifest", help="CSV manifest instead of raw files")
    p.add_argument("--output", required=True, help="stats file to write (- for stdout)")
    p.add_argument("--corpus-label", default="")
    p.set_defaults(func=cmd_fit_stats)

    p = sub.add_parser("score", help="score the 24 voice qualities per file")
    p.add_argument("inputs", nargs="+", help="WAV files or directories")
    p.add_argument("--stats", help=f"stats file (default ${STATS_ENV_VAR})")
    p.add_argument("--table", help="correlation table file (default bundled)")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--with-contributions", action="store_true",
                   help="include per-feature z contributions")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="pairwise ranking evaluation")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--manifest", help="CSV manifest of `path,label` rows")
    source.add_argument("--suite", choices=sorted(SUITE_QUALITY),
                        help="built-in synthetic suite instead of a manifest")
    p.add_argument("--stats", help="stats file (default: fit on the eval set)")
    p.add_argument("--table", help="correlation table file (default bundled)")
    p.add_argument("--output", help="machine-readable JSON report path")
    p.add_argument("--seed", type=int, default=0, help="seed of the --suite voices")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate one synthetic test vowel")
    p.add_argument("--kind", choices=KINDS, default="clean", help="vowel kind")
    p.add_argument("--f0", type=float, default=150.0, help="pitch in Hz")
    p.add_argument("--duration", type=float, default=1.0, help="length in s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter-pct", type=float, default=2.0, help="jitter in %%")
    p.add_argument("--shimmer-db", type=float, default=1.0, help="shimmer in dB")
    p.add_argument("--noise-ratio", type=float, default=0.25, help="noise ratio")
    p.add_argument("--output", default="synth.wav", help="WAV file to write")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("suite", help="write a labeled synthetic suite of WAVs plus manifest.csv")
    p.add_argument("kind", choices=sorted(SUITE_QUALITY), help="suite kind")
    p.add_argument("--output-dir", required=True, help="directory to write")
    p.add_argument("--count", type=int, default=8, help="positives (and negatives) to write")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_suite)
    return parser


# built once per process: a parser holds reference cycles that only the
# cyclic garbage collector frees, so one per call would leave garbage behind
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except VoiceQualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
