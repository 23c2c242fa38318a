"""Byte-identity pin: the 1-epoch output digest of every shipped config.

The digests are ``benchmarks/common.py:digest_run`` of ``metrics.csv``
(without ``wall_ms``) and the model dumps.  A change that moves one has
changed the arithmetic; if it does so on purpose, record the new digests
here in the same change and say so.  float32 exp/tanh may differ between
NumPy's SIMD dispatch targets, so the pin holds only on the platform it
was recorded on, and the test skips elsewhere.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from bf16emu.harness import config_from_mapping, parse_config_file, \
    run_experiment

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
from common import digest_run  # noqa: E402
from worker import platform_fingerprint  # noqa: E402

PLATFORM = "numpy-2.4.6:X86_V2,X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"

ARMS = {"bf16": {"precision": "bf16", "rounding": "rne"},
        "fp16": {"precision": "fp16", "rounding": "rne"},
        "bf16-trunc": {"precision": "bf16", "rounding": "trunc"}}

DIGESTS = {
    ("conv-digits", "bf16"):
        "5fb26d9e6cfab6a939b76f9261ef1a7b3aeda4ac1b3d580363c31474dfb67ab3",
    ("conv-digits", "fp16"):
        "bf0f8eddfc72904d6827888ec91be2726360d9d3241f0a2baf470cdc8bb21f42",
    ("conv-digits", "bf16-trunc"):
        "23af483b30ccc863ad7d0c614c31690690ebe6cf1c1f9dcb9c5b61df1f30571f",
    ("fp16-stress", "bf16"):
        "54b4a5913a3958f25bc017e017fe858d8677d8031c8e8a9076c734fe67d874b1",
    ("fp16-stress", "fp16"):
        "5c6c80e89e2669d160ae09cc1577ed48399ea742b1a8b18c277b8cdbfd5abd80",
    ("fp16-stress", "bf16-trunc"):
        "ee7852327655e24af880345ddb3ed534d845deb69fa4f3a27a0cbc9dec519b3b",
    ("logistic-ctr", "bf16"):
        "28f36afda3846283dba8645bc45f1c75664563a5bb7348bbc3a8ddb5d3d6ad55",
    ("logistic-ctr", "fp16"):
        "fe6ae8e2442747b8662dc9a47d1bc28793a2f6c866b2586eeabe51c344ba8f8d",
    ("logistic-ctr", "bf16-trunc"):
        "8cf92aea95132783c91fd965b9cb100a368b4f75c21fbf110dbeb043d5eaa1d3",
    ("lstm-sine", "bf16"):
        "1d403f2ceb55adfe80dc92a7b86e2ef96ca4a789391cefbd1117a7cab457f5f5",
    ("lstm-sine", "fp16"):
        "c20f58630bcfbd11faf8ae6af7f3eecf06c4a4fa8c72ec905ed5e5f5afe435a8",
    ("lstm-sine", "bf16-trunc"):
        "9bf0cf71b31f6e25bad2723ff65187b9534c00b0d60134f9ee0728b6aad2e801",
    ("mlp-circles", "bf16"):
        "a05062ccd9f474295493fef1e1ff479b0e7f2bebb8297dd633573ecf46dc75f1",
    ("mlp-circles", "fp16"):
        "4259549392b440f24ed3e9d867b104a48eb075312ef7b6485549ec5b0bd96147",
    ("mlp-circles", "bf16-trunc"):
        "df0c481951173d06261632b08300abfa0a4c82c3372df711907a990ddcd870b2",
}


def test_every_shipped_config_is_pinned():
    shipped = {path.stem for path in (ROOT / "configs").glob("*.cfg")}
    assert {(cfg, arm) for cfg in shipped for arm in ARMS} == set(DIGESTS)


@pytest.mark.skipif(platform_fingerprint() != PLATFORM,
                    reason="digests recorded on another NumPy dispatch target")
@pytest.mark.parametrize("config, arm", sorted(DIGESTS),
                         ids=[f"{c}-{a}" for c, a in sorted(DIGESTS)])
def test_one_epoch_digest(config, arm, tmp_path):
    mapping = parse_config_file(ROOT / "configs" / f"{config}.cfg")
    mapping.update(ARMS[arm])
    mapping.update(epochs="1", out=str(tmp_path / "run"))
    run_experiment(config_from_mapping(mapping))
    assert digest_run(tmp_path / "run") == DIGESTS[(config, arm)]
