"""Frozen inventory of the 39 closed move-family sets, shared across tests."""

# label -> member letters, every closed set.
EXPECTED_MEMBERS = {
    "bottom": "",
    "a": "a", "b": "b", "c": "c", "d": "d", "e": "e",
    "f": "f", "g": "g", "h": "eh", "i": "abi", "j": "cdj",
    "ab": "ab", "ac": "ace", "ad": "ad", "af": "acefgh", "aj": "acdej",
    "bc": "bc", "bd": "bd", "be": "be", "bf": "bdf", "bg": "bdg",
    "bh": "bdeh", "bj": "bcdj", "cd": "cd", "ci": "abcei", "de": "de",
    "di": "abdi", "ef": "efg",
    "abc": "abce", "abd": "abd", "abf": "abcdefgh", "abj": "abcdej",
    "acd": "acde", "bcd": "bcd", "bde": "bde", "bef": "bdefg",
    "cdi": "abcdei", "abcd": "abcde",
    "sym": "abcdefghij",
}

# All 39 labels ordered by member bitmask, matching enumerate_lattice().
LABELS_BY_MASK = [
    "bottom", "a", "b", "ab", "c", "bc", "d", "ad", "bd", "abd",
    "cd", "bcd", "e", "be", "ac", "abc", "de", "bde", "acd", "abcd",
    "f", "bf", "g", "bg", "ef", "bef", "h", "bh", "af", "abf",
    "i", "di", "ci", "cdi", "j", "bj", "aj", "abj", "sym",
]

# 37 labels between bottom and sym, in the published table's row order.
PROPER_LABELS = [
    "a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
    "ab", "ac", "ad", "af", "aj", "bc", "bd", "be", "bf", "bg",
    "bh", "bj", "cd", "ci", "de", "di", "ef",
    "abc", "abd", "abf", "abj", "acd", "bcd", "bde", "bef", "cdi",
    "abcd",
]
