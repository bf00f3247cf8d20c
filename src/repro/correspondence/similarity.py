"""Attribute-name similarity used to weight value-correspondence candidates.

The paper instantiates ``sim(a, a')`` as ``α − Levenshtein(a, a')`` for a
fixed constant ``α``.  We implement the standard Levenshtein edit distance
plus the derived similarity scores used by the MaxSAT encoding.
"""

from __future__ import annotations

from functools import lru_cache


#: The fixed constant α of the paper's similarity metric (and the weight of
#: the one-to-one preference soft clauses).
DEFAULT_ALPHA = 8


def levenshtein(left: str, right: str) -> int:
    """The classic edit distance (insertions, deletions, substitutions).

    Myers' bit-parallel algorithm (JACM 1999) in Hyyrö's Levenshtein form
    (2003): one column of the DP matrix over the shorter string is kept as
    two bit vectors of vertical +1/-1 deltas, and each character of the
    longer string advances the whole column with a few integer operations.
    Python integers are unbounded, so strings longer than a machine word
    need no blocking; ``mask`` keeps the vectors at the column's height.
    """
    if left == right:
        return 0
    if len(left) < len(right):
        left, right = right, left
    height = len(right)
    if height == 0:
        return len(left)
    match: dict[str, int] = {}
    bit = 1
    for char in right:
        match[char] = match.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = 1 << (height - 1)
    plus, minus = mask, 0
    distance = height
    for char in left:
        eq = match.get(char, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(horizontal | plus)
        h_minus = plus & horizontal
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        h_plus = (h_plus << 1) | 1
        h_minus <<= 1
        plus = (h_minus | ~(vertical | h_plus)) & mask
        minus = h_plus & vertical
    return distance


@lru_cache(maxsize=65536)
def _cached_levenshtein(left: str, right: str) -> int:
    return levenshtein(left, right)


def name_similarity(left: str, right: str, alpha: int = DEFAULT_ALPHA) -> int:
    """Similarity score used by the value-correspondence encoding.

    The paper instantiates ``sim`` as ``α − Levenshtein``.  We keep that shape
    with two refinements that make the first enumerated correspondence match
    the intended one on realistic schemas:

    * the slope is 2 (``α − 2·Levenshtein``), so clearly unrelated names score
      negative and are not speculatively mapped;
    * if one name contains the other (the common rename pattern of adding a
      prefix or suffix, e.g. ``email`` → ``email_address``), the score is
      ``α − 1`` regardless of the edit distance.

    The weight of the one-to-one preference clauses stays α, as in the paper.
    """
    a, b = left.lower(), right.lower()
    if a == b:
        return alpha
    if len(a) >= 3 and len(b) >= 3 and (a in b or b in a):
        return alpha - 1
    return alpha - 2 * _cached_levenshtein(a, b)


def normalized_similarity(left: str, right: str) -> float:
    """Edit similarity scaled to [0, 1]; useful for reporting and tests."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - _cached_levenshtein(left.lower(), right.lower()) / longest
