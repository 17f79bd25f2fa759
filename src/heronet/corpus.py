"""Synthetic dialogue corpus, vocabulary, and interchange formats.

The corpus is generated from a bank of topic templates.  Each template owns
several query paraphrases and several response wordings, plus slot fillers
shared across templates.  Pairs generated from the same template with the
same slot values form a paraphrase cluster.  Cluster ids stay out of the
JSONL records, which keep the fixed schemas below; gen-data lists them in a
clusters.json sidecar instead.

JSONL schemas:
  dialogue pair   {"context": [...], "query": "...", "response": "..."}
  candidate pool  {"id": 0, "query": "...", "response": "..."}

The vocabulary is built once, by gen-data, and written as vocab.json:
  {"vocab_size": 512, "tokens": ["[PAD]", "[UNK]", ...]}
where vocab_size is the max_size build_vocab was given and tokens lists
the entries in id order, the reserved entries first.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import seeds

# reserved vocabulary entries, ids fixed by position
RESERVED = ("[PAD]", "[UNK]", "[BOS]", "[EOS]", "[SEP]", "[EOU]")
PAD_ID, UNK_ID, BOS_ID, EOS_ID, SEP_ID, EOU_ID = range(6)

_CORPUS_STREAM = seeds.CORPUS  # rng stream tag for corpus synthesis


@dataclass
class DialoguePair:
    """One training example: prior turns, the user query, the gold response."""

    context: list[str]
    query: str
    response: str
    cluster_id: int | None = None  # from clusters.json, not the JSONL


@dataclass
class PoolEntry:
    id: int
    query: str
    response: str
    cluster_id: int | None = None  # from clusters.json, not the JSONL


@dataclass
class CandidatePool:
    entries: list[PoolEntry]

    @property
    def size(self) -> int:
        return len(self.entries)

    def queries(self) -> list[str]:
        return [e.query for e in self.entries]

    def responses(self) -> list[str]:
        return [e.response for e in self.entries]


@dataclass
class Corpus:
    train: list[DialoguePair]
    valid: list[DialoguePair]
    test: list[DialoguePair]
    pool: CandidatePool

    def all_pairs(self) -> list[DialoguePair]:
        return self.train + self.valid + self.test


@dataclass
class Vocab:
    id_to_token: list[str]
    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.token_to_id:
            self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)


# Each filler is a (query form, response form) pair: users name a thing one
# way, answers refer to it by its internal name.  The two surfaces share no
# tokens, so matching a response to its query is an association the models
# must learn rather than a word-overlap giveaway.
_FILLERS = {
    "pkg": (("numpy", "mathkit"), ("curl", "fetchbin"), ("docker", "boxd"),
            ("nginx", "webfront"), ("redis", "memstore"), ("ffmpeg", "codecbox")),
    "os": (("ubuntu", "aptland"), ("fedora", "rpmland"), ("debian", "stableline"),
           ("arch", "rollingline")),
    "editor": (("vim", "modalpad"), ("emacs", "lispdesk"), ("nano", "plainpad")),
    "lang": (("python", "snakelang"), ("rust", "crabforge"), ("go", "gopherkit"),
             ("ruby", "gemline")),
    "service": (("postgres", "sqlboxa"), ("mysql", "sqlboxb"), ("jenkins", "cihub")),
    "device": (("laptop", "fieldunit"), ("server", "rackunit"),
               ("workstation", "deskunit")),
    "shell": (("bash", "shellalpha"), ("zsh", "shellbeta"), ("fish", "shellgamma")),
    "browser": (("firefox", "foxview"), ("chromium", "chromeview"),
                ("epiphany", "webviewer")),
    "file": (("config", "settingsheet"), ("log", "journalfeed"), ("cache", "scratchpile")),
}

# (name, slots, query paraphrases, response wordings).  Every response carries
# a {num} detail slot filled with random digits so no two gold responses for
# the same topic are forced to coincide.  Response wordings deliberately avoid
# the content words of the query side (answers paraphrase, they do not echo),
# so token overlap between a query and its gold response is function words at
# most; tests/test_corpus.py pins that separation.
_TEMPLATES = (
    ("install", ("pkg", "os"),
     ("how do i install {pkg} on {os}",
      "what is the easiest way to install {pkg} on {os}",
      "help me get {pkg} installed on my {os} box"),
     ("the {os} channel carries {pkg} relog your session first ref {num}",
      "wire {pkg} into {os} through the fresh channel ref {num}",
      "the {os} catalog carries {pkg} flip the toggle and relog ref {num}")),
    ("remove", ("pkg",),
     ("how can i completely remove {pkg}",
      "what is the clean way to uninstall {pkg}",
      "i want {pkg} gone from my system"),
     ("strip {pkg} out and sweep its leftover folders ref {num}",
      "drop {pkg} then scrub the residue under that path ref {num}")),
    ("upgrade", ("pkg",),
     ("how do i upgrade {pkg} to the latest release",
      "what command updates {pkg}",
      "my {pkg} version is ancient how do i update it"),
     ("bump {pkg} to the newest drop in one pass ref {num}",
      "repin {pkg} against the fresh channel and sync it down ref {num}")),
    ("service_down", ("service",),
     ("{service} refuses to start after reboot",
      "why does {service} fail to come up",
      "{service} will not start on boot"),
     ("{service} trips on a dead lock marker purge it then launch fresh ref {num}",
      "probe the {service} unit state then arm the launch step ref {num}")),
    ("service_logs", ("service",),
     ("where do i find the logs for {service}",
      "how can i watch {service} logs live",
      "which file stores {service} log output"),
     ("tail the {service} journal stream through the spool daemon ref {num}",
      "{service} parks its journal under the spool tree ref {num}")),
    ("port", (),
     ("how do i find which process is using a port",
      "something is already listening on my port how do i see what",
      "what tool shows the process bound to a port"),
     ("dump the socket table then scan each owner stamp ref {num}",
      "probe each endpoint row then scan its owner stamp ref {num}")),
    ("wifi", ("os",),
     ("wifi keeps dropping every few minutes on {os}",
      "why does my wireless disconnect on {os}",
      "{os} wifi is unstable after suspend"),
     ("flip off the radio power cap within the {os} link panel ref {num}",
      "bounce the radio module on {os} for a fresh link ref {num}")),
    ("audio", ("os",),
     ("there is no sound at all on {os}",
      "audio stopped working on {os} after an update",
      "{os} shows dummy output instead of speakers"),
     ("kick the mixer daemon then mark the right sink on {os} ref {num}",
      "swap the firmware bundle for {os} then power cycle ref {num}")),
    ("monitor", (),
     ("my external monitor is not detected",
      "second screen stays black when plugged in",
      "laptop does not see the external display"),
     ("force a video rescan from the graphics panel ref {num}",
      "swap the lead and mark the wide panel primary ref {num}")),
    ("disk", (),
     ("my disk is almost full what can i delete",
      "how do i free up disk space safely",
      "root partition filled up overnight"),
     ("rank the folders by weight and flush the package residue first ref {num}",
      "drop the retired kernels and shrink the giant journal ref {num}")),
    ("permission", ("file",),
     ("i get permission denied on the {file} file",
      "cannot write to the {file} file even with my user",
      "why is the {file} file read only for me"),
     ("grant the {file} entry to your account then relog ref {num}",
      "grant group edit bits on the {file} entry ref {num}")),
    ("editor_exit", ("editor",),
     ("how do i exit {editor} without saving",
      "i am stuck inside {editor} how do i quit",
      "what keys close {editor} discarding changes"),
     ("{editor} bails from control mode with the bang shortcut ref {num}",
      "fire the farewell flag in {editor} with the force toggle ref {num}")),
    ("editor_replace", ("editor",),
     ("how do i search and replace across a file in {editor}",
      "global replace in {editor} how does it work",
      "{editor} substitute every match in the buffer"),
     ("fire the swap directive in {editor} with the wide scope flag ref {num}",
      "{editor} handles it through one wide pattern pass ref {num}")),
    ("shell_default", ("shell",),
     ("how do i make {shell} my default shell",
      "switch login shell to {shell}",
      "set {shell} as the shell for my user"),
     ("point your account row to the {shell} binary and relog ref {num}",
      "swap the passwd row so {shell} owns the session ref {num}")),
    ("alias", ("shell",),
     ("my alias disappears when i open a new {shell} window",
      "how do i make an alias permanent in {shell}",
      "{shell} forgets my alias after restart"),
     ("park the shortcut within the {shell} profile and source it ref {num}",
      "declare it in the {shell} profile so each session carries it ref {num}")),
    ("git_undo", (),
     ("how do i undo my last commit but keep the changes",
      "i committed too early can i take it back",
      "undo a commit without losing work"),
     ("soft rewind one step and the tree parks staged ref {num}",
      "amend the freshest revision and mark it right ref {num}")),
    ("git_branch", (),
     ("how do i delete a local branch that is merged",
      "remove an old branch from my checkout",
      "clean up stale branches in my repo"),
     ("cut the retired twig with the lowercase flag ref {num}",
      "prune the dead twig list in one loop ref {num}")),
    ("compile", ("lang",),
     ("my {lang} build fails with a missing header",
      "{lang} compile error about undefined symbols",
      "cannot build the {lang} project anymore"),
     ("fetch the {lang} dev bundle for your distro first ref {num}",
      "scrub the {lang} object tree then wire it once more ref {num}")),
    ("version", ("lang",),
     ("how do i check which {lang} version is installed",
      "print the {lang} version from the terminal",
      "which release of {lang} am i running"),
     ("the {lang} binary carries its edition stamp with the v flag ref {num}",
      "the package catalog carries the {lang} edition row ref {num}")),
    ("battery", ("device",),
     ("battery drains way too fast on my {device}",
      "my {device} dies in two hours on battery",
      "poor battery life on the {device} lately"),
     ("flip the economy profile on the {device} and cap the juice ref {num}",
      "probe the juice hog on the {device} with the draw meter ref {num}")),
    ("backup", ("device",),
     ("what is a simple way to back up my home directory on a {device}",
      "how should i snapshot my files on the {device}",
      "set up automatic backups for my {device}"),
     ("mirror the whole tree each cycle from the {device} to a spare drive ref {num}",
      "mirror the {device} tree weekly and park rolling increments ref {num}")),
    ("ssh_key", ("device",),
     ("how do i set up ssh keys for my remote {device}",
      "passwordless login to the {device} over ssh",
      "copy my public key to the {device}"),
     ("mint a pair and push one half to the {device} ref {num}",
      "append your stamp to the authorized list on the {device} ref {num}")),
    ("firewall", ("os",),
     ("how do i open a port in the {os} firewall",
      "allow incoming traffic on {os}",
      "{os} firewall blocks my service"),
     ("stitch a pass rule into the {os} filter and cycle it ref {num}",
      "flip the lane zone wide in the {os} filter panel ref {num}")),
    ("browser_cache", ("browser",),
     ("how do i clear the cache in {browser}",
      "{browser} keeps showing an old page",
      "wipe cookies and cache from {browser}"),
     ("flush the leftover bits from the {browser} privacy pane ref {num}",
      "launch {browser} once in private mode and flush the store ref {num}")),
    ("cron", (),
     ("how do i schedule a script to run every night",
      "run a job daily at midnight",
      "what is the syntax to cron a nightly task"),
     ("drop a five field row into the crontab table ref {num}",
      "arm a timer unit to fire the payload past dark ref {num}")),
    ("printer", ("os",),
     ("{os} cannot find my network printer",
      "printer not showing up on {os}",
      "how do i add a printer on {os}"),
     ("park the paper unit by address within the {os} queue panel ref {num}",
      "bounce the spooler daemon on {os} then rescan the bus ref {num}")),
)

_SMALL_TALK = (
    "hello there",
    "anyone around to help",
    "thanks for the help",
    "i tried the docs already",
    "this is on my work machine",
    "i am new to all this",
    "help me out with this one",
    "the docs were no help at all",
)


def _draw_pair(rng, cluster_ids: dict):
    """Sample one pair; returns (pair, template index, slot values, form index)."""
    t_idx = int(rng.integers(len(_TEMPLATES)))
    name, slots, queries, responses = _TEMPLATES[t_idx]
    values = {s: _FILLERS[s][int(rng.integers(len(_FILLERS[s])))] for s in slots}
    key = (name,) + tuple(values[s][0] for s in slots)
    if key not in cluster_ids:
        cluster_ids[key] = len(cluster_ids)
    q_idx = int(rng.integers(len(queries)))
    r_idx = int(rng.integers(len(responses)))
    query = queries[q_idx].format(**{s: v[0] for s, v in values.items()})
    detail = f"{int(rng.integers(10))} {int(rng.integers(10))}"
    response = responses[r_idx].format(
        **{s: v[1] for s, v in values.items()}, num=detail)
    n_ctx = int(rng.integers(4))
    context = [_SMALL_TALK[int(rng.integers(len(_SMALL_TALK)))] for _ in range(n_ctx)]
    pair = DialoguePair(context, query, response, cluster_id=cluster_ids[key])
    return pair, t_idx, values, q_idx


def _paraphrase_query(rng, t_idx: int, values: dict, avoid_form: int) -> str:
    """Pick a different query wording for the same template and slot values."""
    queries = _TEMPLATES[t_idx][2]
    choices = [i for i in range(len(queries)) if i != avoid_form]
    pick = choices[int(rng.integers(len(choices)))] if choices else avoid_form
    return queries[pick].format(**{s: v[0] for s, v in values.items()})


def generate_synthetic_corpus(seed: int = 7, n_train: int = 1000,
                              n_eval: int = 200, pool_size: int = 500) -> Corpus:
    """Build train/valid/test splits plus a candidate pool.

    The pool always contains, for every test pair, one entry whose response
    is the gold response and whose query is a paraphrase of the test query;
    the remainder is filled with generated distractors.  All responses in
    the pool are distinct strings.
    """
    if min(n_train, n_eval, pool_size) < 1:
        raise ValueError("corpus sizes must be positive")
    if pool_size < n_eval:
        raise ValueError(f"pool_size {pool_size} smaller than test split {n_eval}")
    rng = np.random.default_rng([seed, _CORPUS_STREAM])
    cluster_ids: dict = {}
    seen_resp: set = set()

    def draw_unique():
        # responses are globally unique so pool entries never collide
        for _ in range(500):
            pair, t_idx, values, q_idx = _draw_pair(rng, cluster_ids)
            if pair.response not in seen_resp:
                seen_resp.add(pair.response)
                return pair, t_idx, values, q_idx
        raise RuntimeError("could not draw a fresh pair, template bank too small")

    train = [draw_unique()[0] for _ in range(n_train)]
    valid = [draw_unique()[0] for _ in range(n_eval)]

    test = []
    pool_entries = []
    for _ in range(n_eval):
        pair, t_idx, values, q_idx = draw_unique()
        test.append(pair)
        pool_entries.append(PoolEntry(0, _paraphrase_query(rng, t_idx, values, q_idx),
                                      pair.response, cluster_id=pair.cluster_id))
    while len(pool_entries) < pool_size:
        pair, _, _, _ = draw_unique()
        pool_entries.append(PoolEntry(0, pair.query, pair.response,
                                      cluster_id=pair.cluster_id))

    order = rng.permutation(len(pool_entries))
    shuffled = [pool_entries[int(i)] for i in order]
    for i, entry in enumerate(shuffled):
        entry.id = i
    return Corpus(train, valid, test, CandidatePool(shuffled))


def build_vocab(corpus: Corpus, max_size: int = 512) -> Vocab:
    """Frequency-ranked vocabulary over all splits and the pool.

    Keeps the most frequent tokens up to max_size including the reserved
    entries; frequency ties break lexicographically.
    """
    if max_size <= len(RESERVED):
        raise ValueError(f"max_size must exceed {len(RESERVED)}")
    counts: Counter = Counter()
    for pair in corpus.all_pairs():
        for turn in pair.context:
            counts.update(turn.split())
        counts.update(pair.query.split())
        counts.update(pair.response.split())
    for entry in corpus.pool.entries:
        counts.update(entry.query.split())
        counts.update(entry.response.split())
    for tok in RESERVED:
        counts.pop(tok, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - len(RESERVED)]]
    return Vocab(list(RESERVED) + kept)


def write_vocab(path, vocab: Vocab, max_size: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"vocab_size": max_size,
                             "tokens": vocab.id_to_token},
                            ensure_ascii=False) + "\n")


def read_vocab(path) -> tuple[Vocab, int]:
    """(vocabulary, the max_size it was built with) from a vocab.json."""
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    tokens, max_size = rec["tokens"], int(rec["vocab_size"])
    if (tuple(tokens[:len(RESERVED)]) != RESERVED or len(tokens) > max_size
            or len(set(tokens)) != len(tokens)
            or not all(isinstance(t, str) for t in tokens)):
        raise ValueError(f"{path} is not a vocabulary of at most {max_size} "
                         "distinct tokens led by the reserved entries")
    return Vocab(list(tokens)), max_size


def encode_text(text: str, vocab: Vocab, max_len: int | None = None) -> list[int]:
    tokens = text.split()
    if not tokens:
        raise ValueError("cannot encode empty text")
    ids = [vocab.token_to_id.get(t, UNK_ID) for t in tokens]
    return ids[:max_len] if max_len is not None else ids


def decode_ids(ids, vocab: Vocab, keep_special: bool = False) -> str:
    toks = [vocab.id_to_token[int(i)] for i in ids]
    if not keep_special:
        toks = [t for t in toks if t not in RESERVED]
    return " ".join(toks)


def splice_context(pair: DialoguePair) -> str:
    """Flatten a pair into one source string, query first, newest turn next."""
    return " [EOU] ".join([pair.query, *reversed(pair.context)])


def validate_corpus(corpus: Corpus) -> None:
    """Raise ValueError on any structural invariant violation."""
    for split_name, split in (("train", corpus.train), ("valid", corpus.valid),
                              ("test", corpus.test)):
        if not split:
            raise ValueError(f"{split_name} split is empty")
        for pair in split:
            if not pair.query.split() or not pair.response.split():
                raise ValueError(f"{split_name} pair with empty query or response")
            if any(not turn.split() for turn in pair.context):
                raise ValueError(f"{split_name} pair with empty context turn")
    keys = [{(p.query, p.response) for p in s}
            for s in (corpus.train, corpus.valid, corpus.test)]
    if keys[0] & keys[1] or keys[0] & keys[2] or keys[1] & keys[2]:
        raise ValueError("splits are not disjoint")
    ids = [e.id for e in corpus.pool.entries]
    if ids != list(range(len(ids))):
        raise ValueError("pool ids are not dense ascending")
    responses = set()
    for entry in corpus.pool.entries:
        if not entry.query.split() or not entry.response.split():
            raise ValueError("pool entry with empty query or response")
        if entry.response in responses:
            raise ValueError("duplicate response text in pool")
        responses.add(entry.response)
    for pair in corpus.test:
        if pair.response not in responses:
            raise ValueError("test response missing from pool")


def write_pairs(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({"context": p.context, "query": p.query,
                                 "response": p.response}, ensure_ascii=False) + "\n")


def read_pairs(path) -> list[DialoguePair]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                pairs.append(DialoguePair(list(rec["context"]), rec["query"],
                                          rec["response"]))
    return pairs


def write_pool(path, pool: CandidatePool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in pool.entries:
            fh.write(json.dumps({"id": e.id, "query": e.query,
                                 "response": e.response}, ensure_ascii=False) + "\n")


def read_pool(path) -> CandidatePool:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                entries.append(PoolEntry(int(rec["id"]), rec["query"], rec["response"]))
    entries.sort(key=lambda e: e.id)
    ids = [e.id for e in entries]
    if ids != list(range(len(ids))):
        raise ValueError("pool file ids are not dense")
    return CandidatePool(entries)
