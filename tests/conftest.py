import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polyscore import tensor as T
from polyscore.encoder import ModelConfig, TransformerWeights
from polyscore.text import Vocabulary


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def summed(parts):
    """A step's loss parts as one loss on one tape: the part itself when
    there is one, else their sum."""
    return functools.reduce(T.add, parts)


def rewrite_header(path, edit):
    """Apply edit to the JSON header of the checkpoint at path, in place."""
    raw = path.read_bytes()
    start = len(b"PLYSCKPT") + 8
    hlen = int.from_bytes(raw[start - 4:start], "little")
    header = json.loads(raw[start:start + hlen])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[:start - 4] + len(new).to_bytes(4, "little") + new
                     + raw[start + hlen:])


@pytest.fixture
def rng():
    return make_rng(0)


@pytest.fixture
def tiny_vocab():
    return Vocabulary([f"w{i}" for i in range(28)])


@pytest.fixture
def desk_config(tiny_vocab):
    return ModelConfig(vocab_size=len(tiny_vocab))


@pytest.fixture
def desk_weights(desk_config):
    return TransformerWeights.init(desk_config, make_rng(7))
