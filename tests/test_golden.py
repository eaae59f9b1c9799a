"""Golden seeded outputs: one fixed CLI sequence on a tiny model, with every
file it writes hashed and compared against `tests/golden.json`.

The sequence: `synth-data` (a train and a dev set); `train` with dropout,
SpecAugment, label smoothing, a dev manifest and `train.keep_best` 2;
`train-skd` at `kd.cadence` 1; `finetune-skd --init`; `train-lm`; a beam-4
`decode` with CTC and the LM; `decode --greedy`; `average` of the checkpoints
in `best.json`; and `benchmark`. It runs in a subprocess with BLAS pinned to
one thread. Before hashing, `wall_time` leaves each `epochs.jsonl` line,
`median_ms` leaves `benchmark.csv`, and the run's own directory leaves every
path in `config.resolved`. Each decode's directory also gets `scores.json`,
the `repr` of the search score of every train and dev utterance under that
decode's checkpoint, LM and config: a change to search or fusion arithmetic
then fails here even where it leaves every hypothesis as it is.

A change that moves one bit of any of these outputs fails here, naming each
file that moved. A change meant to move them rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --rewrite

and says which files moved and why.

The hashes depend on numpy and on the BLAS library, so `golden.json` also
keeps their record (`stack()`). Where the record of the running stack
differs, the test skips and names the fields that differ: another BLAS
kernel may round a matmul differently with no change to this code, so a
mismatch there says nothing about it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"
REWRITE = "PYTHONPATH=src python tests/test_golden.py --rewrite"
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}

ALPHABET = "abcd "
TINY = {
    "data.alphabet": ALPHABET, "model.d_att": "16", "model.d_ff": "32",
    "model.heads": "2", "model.e1": "1", "model.e2": "1", "model.dec_layers": "1",
    "model.dropout": "0.1", "model.feature_dim": "16", "train.epochs": "3",
    "train.batch_size": "3", "train.lr_scale": "0.5", "train.warmup_steps": "100",
    "train.label_smoothing": "0.1", "train.keep_best": "2",
    "train.specaugment": "true", "train.freq_mask_max": "4", "train.time_mask_max": "6",
    "train.finetune_epochs": "2", "kd.phi_final": "0.5", "kd.cadence": "1",
    "decode.beam_size": "4", "decode.ctc_weight": "0.5", "decode.lm_weight": "0.3",
    "lm.d_att": "16", "lm.d_ff": "32", "lm.epochs": "2", "lm.batch_size": "4",
}


def run_sequence(root: Path) -> None:
    """The CLI sequence, each verb writing under `root`."""
    from trasr.cli import main

    def trasr(verb, *argv, **settings):
        sets = [a for k, v in {**TINY, **settings}.items() for a in ("--set", f"{k}={v}")]
        argv = [verb, *map(str, argv)]
        if verb not in ("synth-data", "average"):
            argv += sets
        rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"trasr {' '.join(argv)} exited {rc}")

    for name, n, seed in (("train", 9, 0), ("dev", 3, 1)):
        trasr("synth-data", "--out", root / name, "--n-utterances", n, "--seed", seed,
              "--alphabet", ALPHABET, "--feature-dim", 16,
              "--frames-per-token", 16, 20, "--words", 1, 2, "--word-len", 2, 3)
    data = {"paths.train_manifest": root / "train" / "manifest.tsv",
            "paths.dev_manifest": root / "dev" / "manifest.tsv"}
    trasr("train", "--out", root / "pre", **data)
    trasr("train-skd", "--out", root / "skd", **data)
    best = [root / "pre" / p for p in json.loads((root / "pre" / "best.json").read_text())]
    trasr("finetune-skd", "--out", root / "ft", "--init", best[0], **data)
    trasr("train-lm", "--out", root / "lm", "--manifest", data["paths.train_manifest"])
    trasr("average", "--out", root / "avg.ckpt", *best)
    for out, ckpt, flags in (("beam", root / "avg.ckpt", []),
                             ("greedy", root / "ft" / "epoch0002.ckpt", ["--greedy"])):
        trasr("decode", "--out", root / out, "--checkpoint", ckpt,
              "--manifest", data["paths.dev_manifest"],
              "--lm-checkpoint", root / "lm" / "lm.ckpt", *flags)
        scores = {name: decode_scores(root / out / "config.resolved", ckpt,
                                      root / "lm" / "lm.ckpt", root / name / "manifest.tsv")
                  for name in ("train", "dev")}
        (root / out / "scores.json").write_text(json.dumps(scores, indent=1), encoding="utf-8")
    trasr("benchmark", "--out", root / "bench", "--lengths", 16, 40, "--repetitions", 1)


def decode_scores(config: Path, checkpoint: Path, lm_checkpoint: Path,
                  manifest: Path) -> dict[str, str]:
    """Utterance id -> `repr` of its search score, from `decode_dataset` on
    the checkpoint, LM and resolved config that a `decode` ran with."""
    from trasr.checkpoint import open_checkpoint
    from trasr.config import load_config
    from trasr.data import Vocabulary, load_manifest
    from trasr.model import init_lm_params, init_model_params
    from trasr.training import decode_dataset

    cfg = load_config(config)
    params = init_model_params(cfg.model, cfg.train.seed)
    with open_checkpoint(checkpoint) as ckpt:
        params.load_state_dict(ckpt)
    lm_params = None
    if cfg.decode.lm_weight != 0.0:
        lm_params = init_lm_params(cfg.lm, cfg.train.seed)
        with open_checkpoint(lm_checkpoint) as lm:
            lm_params.load_state_dict(lm)
    results, _ = decode_dataset(load_manifest(manifest), cfg.model, params, cfg.decode,
                                Vocabulary(cfg.alphabet), lm_cfg=cfg.lm, lm_params=lm_params)
    return {r.utt_id: repr(float(r.score)) for r in results}


def _normalized(path: Path, root: Path) -> bytes:
    if path.name == "epochs.jsonl":
        lines = [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
                 for line in path.read_text(encoding="utf-8").splitlines()]
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in lines).encode()
    if path.name == "benchmark.csv":
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        drop = rows[0].index("median_ms")
        return json.dumps([r[:drop] + r[drop + 1:] for r in rows]).encode()
    if path.name == "config.resolved":
        return path.read_text(encoding="utf-8").replace(f"{root}{os.sep}", "").encode()
    return path.read_bytes()


def digests(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of the normalized bytes, for every file under `root`."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(_normalized(p, root)).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def stack() -> dict:
    """What the hashes depend on besides this code: numpy, its BLAS library,
    and the machine's instruction set, by which BLAS picks its kernels."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "machine": platform.machine(),
            "simd": " ".join(config["SIMD Extensions"].get("found", []))}


def measure() -> dict:
    """The stack record and the digests of one run of the sequence, taken in
    a subprocess whose BLAS runs one thread."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"the golden sequence failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def test_seeded_outputs_match_the_golden_file():
    golden, now = json.loads(GOLDEN.read_text(encoding="utf-8")), measure()
    differs = {k: (golden["stack"].get(k), v) for k, v in now["stack"].items()
               if golden["stack"].get(k) != v}
    if differs:
        pytest.skip(f"golden.json was taken on another stack {differs}; "
                    f"compare on its stack, or rewrite with `{REWRITE}`")
    want, got = golden["files"], now["files"]
    moved = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    assert not moved, f"{len(moved)} outputs moved, missing or new: {', '.join(moved)}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--measure"]:
        with tempfile.TemporaryDirectory() as tmp:
            run_sequence(Path(tmp))
            print(json.dumps({"stack": stack(), "files": digests(Path(tmp))}))
    elif sys.argv[1:] == ["--rewrite"]:
        GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"rewrote {GOLDEN}")
    else:
        sys.exit(f"usage: {REWRITE}")
