"""Deterministic per-item seeds and shard specs for campaigns and corpora.

Every randomized campaign in the repo (fuzz sweeps, twin replay fuzzing,
corpus builds) derives a per-item RNG seed from ``(campaign seed, item
index)``.  That derivation used to be duplicated inline at each call
site; it is hoisted here so a corpus built at seed ``s`` can never drift
from a fuzz campaign run at seed ``s`` — the corpus key *is* the
campaign key.

The formula is frozen: ``(seed * 1_000_003 + index) & 0x7FFF_FFFF``.
Changing it would silently re-key every committed corpus, counterexample
file name, and pinned campaign report, so it is guarded by a regression
test (``tests/test_corpus.py``) pinning the first 16 derived seeds.
"""

from __future__ import annotations

#: Multiplier spreading campaign seeds apart (a prime, so consecutive
#: campaign seeds never produce overlapping derived-seed runs for small
#: indices).
SEED_STRIDE = 1_000_003

#: Derived seeds are truncated to 31 bits: positive, and stable across
#: platforms and Python int widths.
SEED_MASK = 0x7FFF_FFFF


def derive_seed(campaign_seed: int, index: int) -> int:
    """The RNG seed of item ``index`` in a campaign with ``campaign_seed``.

    Pure and total: any ``(campaign_seed, index)`` pair maps to one seed,
    so a single failing campaign item can always be regenerated in
    isolation, and shards of one campaign agree on every item they share.
    """
    return (campaign_seed * SEED_STRIDE + index) & SEED_MASK


def check_shard(
    index: int, count: int, error: type[Exception] = ValueError
) -> None:
    """Raise ``error`` unless ``index``/``count`` names a campaign shard.

    A shard ``i/n`` owns the items with ``item index % n == i``, so it
    needs ``0 <= i < n``.
    """
    if not 0 <= index < count:
        raise error(
            f"invalid shard {index}/{count}: "
            "need 0 <= shard_index < shard_count"
        )
