#!/usr/bin/env python3
"""Regenerate ``reference.json``: the expected output of every pool input.

    python3 perfbench/make_reference.py

The values come from the library API on the same inputs the workloads build
(WAV round trips included), so a run that matches them reproduces this
commit's results. Regenerate only when a change is meant to alter results,
and say so where the change is described. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import voicequal  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    work = ROOT / ".bench_build" / "perfbench" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    llf, scores = {}, {}
    try:
        for smoke in (False, True):
            for kind in wl.KINDS:
                for v in range(wl.LONG_VARIANTS):
                    clip = wl.long_clip(kind, v, smoke)
                    path = str(work / "long.wav")
                    wl.write_float_wav(clip, path)
                    vec = voicequal.extract_llf_vector(voicequal.load_audio(path))
                    llf[clip.id] = [vec[k] for k in voicequal.LLF_KEYS]
                    print(clip.id, file=sys.stderr)

        stats = voicequal.load_stats(wl.write_fit_stats(str(work)))
        table = voicequal.load_table()
        for kind in wl.KINDS:
            for v in range(wl.BATCH_POOL):
                clip = wl.batch_clip(kind, v)
                path = str(work / "batch.wav")
                wl.write_stereo_int16_wav(clip, path)
                vec = voicequal.extract_llf_vector(voicequal.load_audio(path))
                result = voicequal.score_all(vec, stats, table)
                scores[clip.id] = [result.scores[q] for q in voicequal.QUALITY_IDS]
        print("batch pool done", file=sys.stderr)

        for kind in wl.KINDS:
            for v in range(wl.RANK_POOL):
                clip = wl.rank_clip(kind, v)
                vec = voicequal.extract_llf_vector(clip.signal())
                llf[clip.id] = [vec[k] for k in voicequal.LLF_KEYS]
        print("rank pool done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = ['{',
             f' "llf_keys": {json.dumps(list(voicequal.LLF_KEYS))},',
             f' "quality_ids": {json.dumps(list(voicequal.QUALITY_IDS))},',
             ' "llf": {']
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(llf.items())))
    lines.append(' },\n "scores": {')
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(scores.items())))
    lines.append(' }\n}')
    Path(wl.REFERENCE_PATH).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCE_PATH}: {len(llf)} vectors, {len(scores)} score rows",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
