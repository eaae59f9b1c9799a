"""Regenerate the decode fixtures and the stored references.

    python3 perfbench/regenerate.py fixtures     # ~3 min on 2 CPUs
    python3 perfbench/regenerate.py references   # ~10 min on 2 CPUs

`fixtures` trains the desk ASR model and the shallow-fusion LM on seeded
synthetic data through trasr's public `run_training` / `run_lm_training`,
copies the chosen checkpoints to `perfbench/fixtures/` and records their
sha256 in `perfbench/references.json`. `references` runs every workload once
per input set, untraced, and stores what the correctness gate compares
against: per-epoch train losses and the decoded hypotheses. Both use the
trasr sources of the checkout they run in, so regenerate only from a commit
whose training and decoding are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys

import env

env.pin_blas()
env.import_trasr()

import harness  # noqa: E402  (after BLAS pinning and the trasr import path)
import workloads as W  # noqa: E402
from trasr.config import resolve  # noqa: E402
from trasr.training import run_lm_training, run_training  # noqa: E402

REFERENCES = harness.REFERENCES
FIXTURES = harness.FIXTURES
FIXTURE_TRAIN = {"n": 96, "n_dev": 16, "epochs": 40}
FIXTURE_LM = {"n_transcripts": 1000, "epochs": 10}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


def save_references(refs: dict) -> None:
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def make_fixtures() -> dict:
    work = env.WORK_DIR / "fixtures"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    FIXTURES.mkdir(exist_ok=True)
    shape = W.DESK_SHAPE
    train = W.write_set(work, "train", W.synthesize(shape, FIXTURE_TRAIN["n"],
                                                    W.TAG_FIXTURE, 0))
    dev = W.write_set(work, "dev", W.synthesize(shape, FIXTURE_TRAIN["n_dev"],
                                                W.TAG_FIXTURE, 1))
    cfg = resolve({**W.DECODE_BEAM.config, "data.alphabet": W.ALPHABET, **W.DESK_TRAIN,
                   "train.epochs": str(FIXTURE_TRAIN["epochs"]),
                   "lm.epochs": str(FIXTURE_LM["epochs"]),
                   "paths.train_manifest": str(train), "paths.dev_manifest": str(dev)})
    records = run_training(cfg, work / "asr", mode="plain", log=print)
    best = json.loads((work / "asr" / "best.json").read_text(encoding="utf-8"))[0]
    shutil.copyfile(work / "asr" / best, FIXTURES / "desk_asr.ckpt")

    texts = [t for t, _ in W.synthesize(shape, FIXTURE_LM["n_transcripts"], W.TAG_FIXTURE, 2)]
    run_lm_training(cfg, texts, work / "lm", log=print)
    shutil.copyfile(work / "lm" / "lm.ckpt", FIXTURES / "lm.ckpt")
    shutil.rmtree(work)

    refs = load_references()
    refs["fixtures"] = {
        name: {"sha256": sha256(FIXTURES / name)} for name in ("desk_asr.ckpt", "lm.ckpt")}
    refs["fixtures"]["desk_asr.ckpt"].update(
        checkpoint=best, dev_accuracy=max(r["dev_accuracy"] for r in records),
        **FIXTURE_TRAIN)
    refs["fixtures"]["lm.ckpt"].update(FIXTURE_LM)
    save_references(refs)
    return refs["fixtures"]


def make_references() -> None:
    """Rebuild every workload's references for every input set, so that all
    of them come from the same sources."""
    refs = load_references()
    for name in harness.WORKLOADS:
        refs[name] = {}
        for k in range(W.N_INPUT_SETS):
            refs[name][str(k)] = harness.reference_run(name, k)
            print(name, k, refs[name][str(k)] if name != "decode-beam" else "", flush=True)
            save_references(refs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("what", choices=("fixtures", "references"))
    args = p.parse_args(argv)
    if args.what == "fixtures":
        print(json.dumps(make_fixtures(), indent=1))
    else:
        make_references()
    return 0


if __name__ == "__main__":
    sys.exit(main())
