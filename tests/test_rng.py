import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamech import rng
from dynamech.rng import ExperienceStreams, substream


def test_same_address_replays_identical_draws():
    a = substream(7, "purpose", 3).random(5)
    b = substream(7, "purpose", 3).random(5)
    assert np.array_equal(a, b)


def test_distinct_addresses_differ():
    a = substream(7, "purpose", 3).random(5)
    b = substream(7, "purpose", 4).random(5)
    c = substream(7, "other", 3).random(5)
    d = substream(8, "purpose", 3).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), path=st.integers(0, 10_000))
def test_experience_streams_replay(seed, path):
    s1 = ExperienceStreams(seed, path)
    draws1 = [s1.draw_pair(0), s1.draw_pair(1), s1.draw_pair(0)]
    s2 = s1.replay()
    draws2 = [s2.draw_pair(0), s2.draw_pair(1), s2.draw_pair(0)]
    assert draws1 == draws2


def test_streams_are_agent_order_independent():
    # consuming agents in different interleavings yields the same
    # per-agent sequences: coupling across runs never depends on the
    # round at which an allocation happens
    s1 = ExperienceStreams(5, 1)
    a0 = [s1.draw_pair(0) for _ in range(3)]
    a1 = [s1.draw_pair(1) for _ in range(3)]
    s2 = ExperienceStreams(5, 1)
    inter = []
    for _ in range(3):
        inter.append((s2.draw_pair(1), s2.draw_pair(0)))
    assert [x[1] for x in inter] == a0
    assert [x[0] for x in inter] == a1


def test_negative_and_string_key_parts():
    a = substream(0, "tag", -5).random()
    b = substream(0, "tag", 5).random()
    assert a != b


def test_draw_pairs_from_blocks_equal_one_draw_per_pair():
    # across two block boundaries, for two agents drawn in turn
    n = 2 * rng._DRAW_BLOCK + 5
    streams = ExperienceStreams(9, 4, "blocks")
    got = {0: [], 1: []}
    for _ in range(n):
        for agent in (1, 0):
            got[agent].append(streams.draw_pair(agent))
    for agent in (0, 1):
        fresh = substream(9, "blocks", 4, agent)
        assert got[agent] == [tuple(fresh.random(2).tolist()) for _ in range(n)]


# Derived keys and re-keyed draws, with NumPy's SeedSequence as the oracle

_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1]), st.integers(0, 2**140))
_PARTS = st.one_of(
    st.integers(-(2**70), -1),  # negative, one to three words
    st.integers(2**31, 2**100),  # multi-word
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=12),
    st.integers(0, 1000),
)


def _numpy_generator(master_seed, *key) -> np.random.Generator:
    """The address's generator as NumPy's own ``SeedSequence`` keys it."""
    words = tuple(w for part in key for w in rng._key_words(part))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=master_seed, spawn_key=words)))


def _numpy_key(master_seed, *key) -> tuple[int, int]:
    return tuple(int(x) for x in _numpy_generator(master_seed, *key).bit_generator.state["state"]["key"])


@pytest.mark.parametrize("address", [(0, "types", 1), (5, "rev-types", 3, 0), (2**70 + 1, "x", -5, "y")])
def test_substream_draws_equal_seed_sequence_draws(address):
    assert substream(*address).random(9).tolist() == _numpy_generator(*address).random(9).tolist()


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, first=_PARTS, rest=st.lists(_PARTS, max_size=3))
def test_stream_key_equals_seed_sequence_key(seed, first, rest):
    assert rng.stream_key(seed, first, *rest) == _numpy_key(seed, first, *rest)


@settings(max_examples=40, deadline=None)
@given(
    seed=_SEEDS,
    purpose=st.text(max_size=8),
    path=st.one_of(st.integers(-(2**40), 2**40), st.integers(0, 2**63 - 1).map(np.int64)),
    blocks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
)
def test_experience_draws_equal_substream_draws(seed, purpose, path, blocks):
    # agent i reads blocks[i] blocks, the agents drawn in turn while each has pairs left
    streams = ExperienceStreams(seed, path, purpose)
    left = [b * rng._DRAW_BLOCK for b in blocks]
    got = [[] for _ in blocks]
    while any(left):
        for agent, n in enumerate(left):
            if n:
                got[agent].append(streams.draw_pair(agent))
                left[agent] -= 1
    for agent, pairs in enumerate(got):
        want = _numpy_generator(seed, purpose, path, agent).random(2 * len(pairs)).tolist()
        assert pairs == list(zip(want[::2], want[1::2]))


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, rows=st.lists(st.tuples(st.integers(-(2**31) + 1, 2**31 - 1), st.integers(0, 50)), max_size=20))
def test_batch_keys_equal_per_address_keys(seed, rows):
    assert rng.stream_keys(seed, "rev-types", rows) == [rng.stream_key(seed, "rev-types", *r) for r in rows]


def test_batch_keys_of_multi_word_parts_equal_per_address_keys():
    rows = [(2**31, 0), (-(2**31), 1), (5, 2**40), (-(2**63), 2)]
    for batch in (rows, rows + [(2**70, -3)], np.array(rows, dtype=np.int64), np.array([(2**64 - 1, 0)], dtype=np.uint64)):
        want = [_numpy_key(3, "rev-types", *(int(x) for x in r)) for r in batch]
        assert rng.stream_keys(3, "rev-types", batch) == want


def test_keyed_generator_replays_any_distribution_draw():
    key = rng.stream_key(4, "types", 1)
    assert rng.keyed(key).exponential(0.3) == substream(4, "types", 1).exponential(0.3)
    assert rng.keyed(key).random() == substream(4, "types", 1).random()


def test_threads_draw_as_a_serial_run_does():
    # each thread re-keys its own scratch generator; more threads than
    # cores and a short switch interval make them interleave between
    # re-key and draw
    def draws(paths):
        out = []
        for path in paths:
            streams = ExperienceStreams(21, path)
            out += [streams.draw_pair(agent) for _ in range(4 * rng._DRAW_BLOCK) for agent in (0, 1)]
        return out

    jobs = {j: range(80 * j, 80 * j + 80) for j in range(4)}
    serial = {j: draws(paths) for j, paths in jobs.items()}
    got = {}
    start = threading.Barrier(len(jobs), timeout=60)

    def worker(j):
        start.wait()
        got[j] = draws(jobs[j])

    threads = [threading.Thread(target=worker, args=(j,)) for j in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


def test_negative_master_seed_raises():
    with pytest.raises(ValueError):
        substream(-1, "tag")
    with pytest.raises(ValueError):
        rng.stream_key(-1, "tag")
    with pytest.raises(ValueError):
        ExperienceStreams(-1, 0).draw_pair(0)


def test_import_and_runtime_leave_numpy_random_and_scipy_unloaded():
    # the scratch generator is made on first draw; a standalone
    # ``import numpy.random`` costs tens of milliseconds of set-up
    code = (
        "import sys\n"
        "import dynamech, dynamech.cli, dynamech.verification\n"
        "from dynamech.config import build_environment, parse_config\n"
        "from dynamech.mechanism import MechanismRuntime\n"
        "MechanismRuntime(build_environment(parse_config('configs/posted_price.cfg')))\n"
        "print(sorted(m for m in ('numpy.random', 'scipy') if m in sys.modules))\n"
    )
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(repo / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=repo, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
