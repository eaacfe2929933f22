"""Golden outputs: the sha256 of every file a small run writes.

Refactors must leave the output bytes alone, so these digests pin the
traces, summaries, votes and recovery files of one small config per
runner, and of one lookup-table run (a table the test writes, see
``write_table``). ``config.resolved.txt`` is left out: it holds the output
path.

The digests pin floating-point results at one numpy/BLAS build; they were
recorded with numpy 2.4.6 on OpenBLAS 0.3.31, x86-64. A different build can
move the last bit of a regret or a solver iterate. Regenerate the table
(``pytest tests/test_golden.py -s`` prints the digests it found) only after
showing that the change in numerics is intended.

The seeds avoid true supports made only of even frequencies: there a grid
point and its mirror image tie in UCB score, and rounding picks between
them (see the ``gp_ucb`` module docstring).
"""

import hashlib

import numpy as np
import pytest

from lifelong_bandits.environment import (
    LookupTable,
    SyntheticEnvironment,
    SyntheticSpec,
    uniform_grid,
)
from lifelong_bandits.features import FeatureAtlas
from lifelong_bandits.harness import build_config, run_experiment

SEEDS = "0,1,2"
_BANDIT = {"seeds": SEEDS, "m": "4", "n": "30", "grid": "120"}

CONFIGS = {
    "lifelong": ("lifelong", _BANDIT),
    "federated": ("federated", _BANDIT),
    "baseline_oracle": ("baseline_oracle", _BANDIT),
    "baseline_full": ("baseline_full", _BANDIT),
    "offline": ("offline", {"seeds": SEEDS, "n": "10", "m_values": "1,3,6"}),
    "lookup": ("lookup", {"seeds": SEEDS, "p": "9", "n": "16"}),
}

GOLDEN = {
    "baseline_full": {
        "summary.csv": "07aa4ad803bc51835d53ec8e0d3ddf96ad988131810aa99feeedd1b7a74e877c",
        "trace_seed0.csv": "75d182757e68959e01e6e183754d6abc49692d6ab0a7f8d1acd71bfb4e3459ec",
        "trace_seed1.csv": "b7bafb08c0bf59b8fb05508dc0cabd1f89436b00bfd59ad8671512cf2095ac3d",
        "trace_seed2.csv": "2ad224879942c73a885b2904ccf759f1c59e4e29e7f0d194d23eb899a59901a1",
    },
    "baseline_oracle": {
        "summary.csv": "55e1af7d7a156604f5d54675a7c7c861f0c45e818ede8051016c5d29dca40a35",
        "trace_seed0.csv": "a934456f04bd8eb7a9d695f4f0acbdf9457b6b930537a186636fc40bfe9d247d",
        "trace_seed1.csv": "06e4af4f12b9497ba3b742751189e9c7bf40412e5ab4b0b5e4025f76ce5ad495",
        "trace_seed2.csv": "fafff778c62afdd758264365d91e8113c05dd11f32f9492f4d287709932006c5",
    },
    "federated": {
        "summary.csv": "2fbc8f794632ed66ab509ce221b5fcc693eff8c8affe4bbb1499cc5421a6f6cf",
        "trace_seed0.csv": "47c1461f6fc5e71863b378c9ba17902607cd399b6966217479b0640ff2496b6e",
        "trace_seed1.csv": "ef16828d764748e6d8457830133064ea253e204f43c234edcdc37e27aee98995",
        "trace_seed2.csv": "38cdda7d38b84a4fae8a0dbeec3e924bf158e1576b7696c82115122d8e0594dc",
        "votes_seed0.csv": "5c79c53e00c5d99d62008e20384c8aa5c0361eaa2d6b395b6a4ee78185205b96",
        "votes_seed1.csv": "9ec776fc90c7b064fb25fb43a6863a4664c1d6e7adc10f18509cd93d1ba4cd7f",
        "votes_seed2.csv": "6d2ea24e6e2e603f1c2a00ff2c28d57d17b5ed0900e73ca5afd3f31ceacf17ae",
    },
    "lifelong": {
        "summary.csv": "50840724acbb9fc6d42f56f65dfdf9171bd83f7f015a0638b90517eeb8c569b4",
        "trace_seed0.csv": "c324cd2970a69aee91bfd70f54bd28213009c50d6856933c9a55374bb97097f2",
        "trace_seed1.csv": "92990360efc8f009aa3dfb36cb9d56926aafcf360960b6872c1f218bf8875bdc",
        "trace_seed2.csv": "9c8976dc61b49877a200c8f3b008255d12b12529b9bae470d2595757fb2582e1",
    },
    "lookup": {
        "summary.csv": "456094592ce30e133acb76d3c3eae4b17ad47021167a311bae24e40583d3bbe3",
        "trace_seed0.csv": "72ad1124d7f940eadca45f781a2dcd16deae9fc2e4cc01381bcc0037c5be836b",
        "trace_seed1.csv": "10baabbb131eb68a0a17aae2eb4f66f850d2a6dcded5c1ce6ed65635b5c8a7a8",
        "trace_seed2.csv": "6159bf27489e17b699d9588c82fd270cd5a92237ac1770a1b6960474ab02f490",
    },
    "offline": {
        "recovery_curve.csv": "1ab36c285d7e3db70b522a22e8d05436b0139e776a26d4a8c95cc378deb048a7",
        "recovery_seed0.csv": "2491165b6cbe5882aa1a146d708214d61a7d172b353b2b2253e876fadbf28532",
        "recovery_seed1.csv": "08b24e1be7876763efbdca273088d76f311fb7ebcbabaa423180d8406f256bf7",
        "recovery_seed2.csv": "7a28e058ac4eddc59d3b33c33eb50154bbd1503574c42c6c119347af9ab9b6fa",
    },
}


def write_table(path):
    """A 3-task table on a 7 x 7 grid of [0, 1]^2: each task a random
    combination of the cosine2d groups 2, 5 and 7 plus a little uniform
    noise, all drawn from a fixed generator."""
    grid = uniform_grid(np.array([[0.0, 1.0], [0.0, 1.0]]), 7)
    rng = np.random.default_rng(3)
    coeffs = np.zeros((9, 3))
    coeffs[[1, 4, 6]] = rng.uniform(-1.5, 1.5, size=(3, 3))
    values = FeatureAtlas("cosine2d", 9).concat_many(grid) @ coeffs
    values += 0.1 * rng.uniform(size=values.shape)
    LookupTable(["x1", "x2"], ["a", "b", "c"], grid, values).save(path)
    return path


def _digests(out) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "config.resolved.txt"
    }


def test_seeds_avoid_mirror_ties():
    spec = SyntheticSpec()  # the harness default for every synthetic kind
    for seed in (int(s) for s in SEEDS.split(",")):
        support = SyntheticEnvironment(spec, n_tasks=1, master_seed=seed).support
        assert any(j % 2 for j in support), (seed, support)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    kind, pairs = CONFIGS[name]
    if kind == "lookup":
        pairs = {**pairs, "table": str(write_table(tmp_path / "table.csv"))}
    out = tmp_path / "out"
    result = run_experiment(build_config(kind, {**pairs, "out": str(out)}))
    assert not result.failures
    found = _digests(out)
    print(f"{name!r}: {found!r},")
    assert found == GOLDEN[name]
