"""The two workloads: what each runs, how it is timed and how it is checked.

`train` calls the three training stages that follow warm-up, one epoch
each: `pipeline.stage_retrieval`, `stage_adversarial` and
`stage_rerank_train`, each from a fresh copy of a cached fixture that holds
the stage's prerequisite checkpoint.  `chat` opens a `pipeline.run_chat`
session and feeds it every distinct dialogue source line once, in a closed
loop with one client and no think time.

Every timed task runs in a child process (`child.py`) as that process's
first heronet work, the way a user meets it: one process per stage call,
per chat session and per set-up.  A run repeats its unit (the three stage
calls, or one chat session) until `--seconds` have passed, at least once;
a traced run makes one unit.

Each run returns a `Run`: the timings, the operations attempted and failed,
the checks that did not hold, and a digest of what the program produced
(the loss CSVs without their wall-clock column, or the served responses).
Equal seeds give equal digests, and tracing must not change the digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import fixtures

# The world (corpus and prerequisite checkpoints) of the adversarial and
# rerank stages and of chat is built once from this seed; the workload seed
# drives the stage's own rng streams (shuffle, mining, rollouts, candidate
# draws) and the chat query order.  One world per seed would cost the whole
# stage chain (about 45 s on a 2-core box) for every new seed.
WORLD_SEED = 7

# Set-up is measured this many times just before each stage call or chat
# session, each time as the first set-up of a fresh process on a fresh copy
# of the fixture, and reported as the median, so the samples spread over
# the whole run.  A user meets set-up once per process, so nothing one
# set-up leaves behind in memory or on disk may speed up the next.
SETUP_REPS = 5
CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass
class Run:
    setup_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    rates: list = field(default_factory=list)     # pairs per second, per unit
    busy_s: float = 0.0
    units: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    record: dict = field(default_factory=dict)
    layers: list = field(default_factory=list)   # one summary per process

    @property
    def pairs_per_s(self) -> float:
        return statistics.median(self.rates) if self.rates else 0.0


@dataclass(frozen=True)
class Stage:
    prereq: str       # fixture stage the call starts from
    entry: str        # public pipeline function
    hook: tuple       # (module, function, pairs argument) called per batch,
                      # or per pair when the argument is None
    epochs: str       # config field holding the stage's epoch count
    per_seed_world: bool


# Keyed on the stage tag of the checkpoint each call leaves, which is also
# the name of its loss log; `train` calls them in this order.
STAGES = {
    # stage_retrieval rebuilds cluster ids from cfg.seed and checks them
    # against the corpus, so its corpus must come from the workload seed.
    # Its prerequisite (gen-data plus one warm-up epoch) costs about 2 s.
    "retrieval": Stage("warmup", "stage_retrieval",
                       ("pipeline", "mine_sqd_batch", (0, "queries")),
                       "multitask_epochs", True),
    "adversarial": Stage("retrieval", "stage_adversarial",
                         ("pipeline", "pg_step", (2, "src_ids")),
                         "adversarial_epochs", False),
    "rerank": Stage("adversarial", "stage_rerank_train",
                    ("rerank", "build_candidate_set", None),
                    "rerank_epochs", False),
}

WORKLOADS = ["train", "chat"]


def _world(name: str, seed: int) -> int:
    stage = STAGES.get(name)
    return seed if stage is not None and stage.per_seed_world else WORLD_SEED


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _same_files(a: Path, b: Path, names) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


class _PairCounter:
    """Rebinds a per-batch (or per-pair) callee to count the pairs it gets."""

    def __init__(self, hook):
        module, name, arg = hook
        owner = sys.modules[f"heronet.{module}"]
        inner = getattr(owner, name)
        self.pairs = 0

        def counted(*args, **kwargs):
            if arg is None:
                self.pairs += 1
            else:
                pos, key = arg
                self.pairs += len(args[pos] if len(args) > pos
                                  else kwargs[key])
            return inner(*args, **kwargs)

        setattr(owner, name, counted)


def _log_digest(path: Path, epochs: int, problems: list) -> str:
    """Digest of the loss log minus its wall-clock column; checks losses."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    keep = [i for i, name in enumerate(header) if name != "seconds"]
    if len(keep) == len(header):
        problems.append(f"{path.name} has no seconds column")
    if len(body) != epochs:
        problems.append(f"{path.name} has {len(body)} rows, expected {epochs}")
    for row in body:
        for name, value in zip(header, row):
            if name in ("epoch", "stage", "seconds") or value == "":
                continue
            if not math.isfinite(float(value)):
                problems.append(f"{path.name}: {name}={value}")
    return _sha("\n".join(",".join(r[i] for i in keep) for r in rows))


def _check_checkpoint(stem: Path, tag: str, problems: list) -> bool:
    from heronet import checkpoint
    if checkpoint.checkpoint_stage(stem) != tag:
        problems.append(f"{stem.name} is missing or not tagged {tag!r}")
        return False
    _, manifest = checkpoint.load_checkpoint(stem)
    if manifest["stage"] != tag:
        problems.append(f"{stem.name} reloads as {manifest['stage']!r}")
        return False
    return True


class _Transcript:
    """A stdout for run_chat that timestamps each completed line."""

    def __init__(self):
        self._buf = ""
        self.ready_at = None
        self.answers = []       # (time, response text, [(score, text)])
        self.other = []

    def write(self, text):
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self._line(line, perf_counter())
        return len(text)

    def flush(self):
        pass

    def _line(self, line, now):
        if line.startswith("[chat] ready"):
            self.ready_at = now
        elif line.startswith("response: "):
            self.answers.append((now, line[len("response: "):], []))
        elif line.startswith("  ") and self.answers:
            rank, _, rest = line.lstrip().partition(". [")
            meta, _, text = rest.partition("] ")
            self.answers[-1][2].append((int(rank), float(meta.split()[-1]),
                                        text))
        elif not line.startswith("top "):
            self.other.append(line)


def _check_answers(answers, k, problems):
    for _, response, shown in answers:
        ranks = [r for r, _, _ in shown]
        scores = [s for _, s, _ in shown]
        if not shown or ranks != list(range(1, len(shown) + 1)) \
                or len(shown) > k:
            problems.append(f"malformed candidate list {ranks}")
            return
        if shown[0][2] != response:
            problems.append("response is not the rank-1 candidate")
            return
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append("candidate scores not in descending order")
            return


# ---------------------------------------------------------------------------
# Tasks, each the first heronet work of a child process (see child.py).


def setup_once(name: str, seed: int, out: Path) -> float:
    """Seconds of one set-up in `out`, a fresh copy of the fixture.

    A stage: gen-data, `load_world` and the prerequisite checkpoint load.
    Chat: from the `run_chat` call until its `[chat] ready` line.
    """
    from heronet import checkpoint, pipeline

    if name == "chat":
        cfg = replace(fixtures.bench_config(WORLD_SEED), seed=seed)
        idle = _Transcript()
        t0 = perf_counter()
        pipeline.run_chat(cfg, out, stdin=iter(()), stdout=idle)
        return idle.ready_at - t0
    # gen-data must rewrite the fixture's corpus, so the world seed is the
    # config seed here.
    cfg = fixtures.bench_config(_world(name, seed))
    with contextlib.redirect_stdout(sys.stderr):
        t0 = perf_counter()
        pipeline.stage_gen_data(cfg, out)
        pipeline.load_world(cfg, out)
        checkpoint.load_checkpoint(out / fixtures.CKPT[STAGES[name].prereq])
        return perf_counter() - t0


def stage_call(tag: str, seed: int, out: Path) -> dict:
    """One call (one epoch) of a training stage in `out`, timed and checked."""
    from heronet import pipeline

    stage = STAGES[tag]
    cfg = replace(fixtures.bench_config(_world(tag, seed)), seed=seed)
    counter = _PairCounter(stage.hook)
    epochs = getattr(cfg, stage.epochs)
    problems = []
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            getattr(pipeline, stage.entry)(cfg, out)
    except (RuntimeError, ValueError) as exc:
        # NumericalAbort and StageOrderError are RuntimeErrors.
        return {"wall_s": perf_counter() - t0, "pairs": counter.pairs,
                "failed": 1, "digest": "",
                "problems": [f"{stage.entry} raised {exc!r}"]}
    wall = perf_counter() - t0
    ok = _check_checkpoint(out / fixtures.CKPT[tag], tag, problems)
    if counter.pairs < epochs * cfg.n_train:
        problems.append(f"{tag} consumed {counter.pairs} pairs, expected "
                        f"{epochs * cfg.n_train}")
        ok = False
    digest = _log_digest(out / "logs" / f"{tag}.csv", epochs, problems)
    return {"wall_s": wall, "pairs": counter.pairs, "failed": int(not ok),
            "digest": digest, "problems": problems}


def chat_pass(seed: int, out: Path, queries: list) -> dict:
    """One chat session in `out` that is sent every query once."""
    from heronet import pipeline

    cfg = replace(fixtures.bench_config(WORLD_SEED), seed=seed)
    sent = []

    def feed():
        for q in queries:
            sent.append(perf_counter())
            yield q + "\n"

    talk = _Transcript()
    t0 = perf_counter()
    pipeline.run_chat(cfg, out, stdin=feed(), stdout=talk)
    end = perf_counter()
    problems = []
    if talk.other:
        problems.append(f"unexpected chat output {talk.other[:3]}")
    _check_answers(talk.answers, cfg.k, problems)
    return {"setup_s": talk.ready_at - t0, "busy_s": end - talk.ready_at,
            "latencies_s": [got - put for put, (got, _, _) in
                            zip(sent, talk.answers)],
            "served": [a[1] for a in talk.answers], "problems": problems}


# ---------------------------------------------------------------------------
# Runs, in the benchmark process.


def _child(run: Run, scratch: Path, task: str, name: str, seed: int,
           out: Path, *extra) -> dict | None:
    """Result of child.py for one task, or None (noted) if it failed."""
    result = scratch / "child.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--task", task, "--workload", name,
         "--seed", str(seed), "--dir", str(out), "--result", str(result),
         *extra], stdout=sys.stderr, check=False)
    if proc.returncode != 0 or not result.exists():
        run.problems.append(f"{task} of {name} exited with "
                            f"{proc.returncode}")
        return None
    got = json.loads(result.read_text(encoding="utf-8"))
    if task == "unit":
        run.peak_rss_mb = max(run.peak_rss_mb, got["maxrss_mb"])
        if "layers" in got:
            run.layers.append(got["layers"])
    return got


def measure_setup(run: Run, scratch: Path, name: str, seed: int,
                  fixture: Path):
    """Add SETUP_REPS set-up times of one stage, or of chat, to the record."""
    # A stage's set-up writes the corpus itself; chat reads the fixture's.
    regenerated = () if name == "chat" else fixtures.DATA_FILES
    samples = run.record.setdefault("setup_samples_s", {})
    samples = samples.setdefault(name, [])
    for _ in range(SETUP_REPS):
        out = scratch / f"setup-{name}"
        shutil.copytree(fixture, out,
                        ignore=shutil.ignore_patterns(*regenerated))
        got = _child(run, scratch, "setup", name, seed, out)
        if got is not None:
            samples.append(got["setup_s"])
            if regenerated and not _same_files(out, fixture, regenerated):
                run.problems.append("gen-data output differs from the "
                                    "fixture")
        shutil.rmtree(out)


def _setup_total(run: Run) -> float:
    """Summed per-stage (or chat) median set-up time; 0 if none ran."""
    samples = run.record.get("setup_samples_s", {})
    if not samples or not all(samples.values()):
        return 0.0
    return sum(statistics.median(v) for v in samples.values())


def _units(run: Run, seconds: float, trace: int, unit):
    """Call unit() while the next one should end within `seconds` of the
    first one's start; at least once, and exactly once when traced."""
    start = perf_counter()
    while unit():
        run.units += 1
        elapsed = perf_counter() - start
        if trace or elapsed + elapsed / run.units > seconds:
            return


def run_train(seed: int, seconds: float, scratch: Path, trace: int,
              spans: Path) -> Run:
    """The three stage calls, each from a fresh copy of its fixture."""
    run = Run(record={"fixture_build_s": {}, "world_seed": {},
                      "stage_wall_s": {tag: [] for tag in STAGES}})
    fixture = {}
    for tag, stage in STAGES.items():
        world = _world(tag, seed)
        fixture[tag], built = fixtures.ensure(stage.prereq, world)
        run.record["fixture_build_s"][tag] = built
        run.record["world_seed"][tag] = world

    digests = set()

    def unit() -> bool:
        wall, pairs, parts = 0.0, 0, []
        for tag in STAGES:
            if not trace:
                measure_setup(run, scratch, tag, seed, fixture[tag])
            out = scratch / tag
            shutil.copytree(fixture[tag], out)
            got = _child(run, scratch, "unit", tag, seed, out,
                         "--trace", str(trace),
                         "--spans", str(spans.with_name(
                             f"{spans.stem}-{tag}.npz")))
            shutil.rmtree(out)
            run.attempted += 1
            if got is None:
                run.failed += 1
                return False
            run.failed += got["failed"]
            run.problems += got["problems"]
            pairs += got["pairs"]
            run.record["stage_wall_s"][tag].append(got["wall_s"])
            if "layers" in got:
                run.record.setdefault("stage_layers", {})[tag] = got["layers"]
            wall += got["wall_s"]
            parts.append(got["digest"])
        run.busy_s += wall
        run.rates.append(pairs / wall)
        run.latencies_s.append(wall)
        digests.add(_sha("\n".join(parts)))
        return True

    _units(run, seconds, trace, unit)
    run.setup_s = _setup_total(run)
    if len(digests) > 1:
        run.problems.append("repeated stage calls wrote different logs")
    run.digest = min(digests, default="")
    return run


def chat_lines(corpus) -> tuple:
    """Distinct dialogue source lines of every split, with a gold response.

    The splits hold 1400 pairs but only a few hundred distinct bare
    queries, so each line is the source the model reads: the query with
    its context spliced on.  The first pair with a given line supplies the
    gold response.
    """
    from heronet.corpus import splice_context
    gold = {}
    for pair in corpus.train + corpus.valid + corpus.test:
        gold.setdefault(splice_context(pair), pair.response)
    return list(gold), gold


def run_chat(seed: int, seconds: float, scratch: Path, trace: int,
             spans: Path) -> Run:
    """Chat sessions, each sent every distinct line in a seed-shuffled order."""
    from heronet import pipeline
    from heronet.metrics import generation_report

    fixture, built = fixtures.ensure("rerank", WORLD_SEED)
    run = Run(record={"fixture_build_s": built, "world_seed": WORLD_SEED,
                      "session_setup_s": []})

    cfg = fixtures.bench_config(WORLD_SEED)
    look = scratch / "lines"
    shutil.copytree(fixture, look)
    with contextlib.redirect_stdout(sys.stderr):
        corpus, _, _ = pipeline.load_world(cfg, look)
    shutil.rmtree(look)
    lines, gold = chat_lines(corpus)
    order = np.random.default_rng(seed).permutation(len(lines))
    queries = [lines[i] for i in order]
    query_file = scratch / "queries.txt"
    query_file.write_text("".join(q + "\n" for q in queries),
                          encoding="utf-8")
    answers, latencies = [], []

    def unit() -> bool:
        if not trace:
            measure_setup(run, scratch, "chat", seed, fixture)
        out = scratch / "chat"
        shutil.copytree(fixture, out)
        got = _child(run, scratch, "unit", "chat", seed, out,
                     "--queries", str(query_file), "--trace", str(trace),
                     "--spans", str(spans))
        shutil.rmtree(out)
        run.attempted += len(queries)
        if got is None:
            run.failed += len(queries)
            return False
        run.failed += len(queries) - len(got["served"])
        run.problems += got["problems"]
        run.busy_s += got["busy_s"]
        run.rates.append(len(got["served"]) / got["busy_s"])
        latencies.append(got["latencies_s"])
        run.record["session_setup_s"].append(got["setup_s"])
        answers.append(got["served"])
        return True

    _units(run, seconds, trace, unit)
    run.setup_s = _setup_total(run)
    if any(a != answers[0] for a in answers):
        run.problems.append("chat sessions served different responses")
    elif latencies:
        # Every session does the same work for a line, so a line's median
        # over the sessions drops host noise and keeps any cost the program
        # pays in most sessions.
        run.latencies_s = np.median(latencies, axis=0).tolist()
    served = answers[0] if answers else []
    # Sorted by line: each line's candidate rng is keyed on the seed and the
    # line, so the digest changes with the seed only if the answers do.
    run.digest = _sha("\n".join(f"{q}\t{r}" for q, r in
                                sorted(zip(queries, served))))
    run.record["order_digest"] = _sha("\n".join(queries))

    # Quality guard, after the timed phase: the served responses must beat
    # answering every line with the most common gold response.
    refs = [gold[q] for q in queries[:len(served)]]
    bleu = generation_report(served, refs).bleu
    common = Counter(refs).most_common(1)[0][0] if refs else ""
    baseline = generation_report([common] * len(refs), refs).bleu
    if not bleu > baseline:
        run.problems.append(f"served BLEU {bleu:.3f} does not beat the "
                            f"constant-answer baseline {baseline:.3f}")
    run.record.update(served_bleu=bleu, constant_answer_bleu=baseline)
    return run


def run_workload(name: str, seed: int, seconds: float, scratch: Path,
                 trace: int, spans: Path) -> Run:
    if name == "chat":
        return run_chat(seed, seconds, scratch, trace, spans)
    return run_train(seed, seconds, scratch, trace, spans)
