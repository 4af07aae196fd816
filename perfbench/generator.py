"""Seeded inputs for the benchmark, made without homolift.

Every map is a rose (one vertex ``v``, petals ``a``, ``b``, ...) whose edge
images are random freely reduced words; homolift only ever receives the
``.gm`` text.  The unipotent filter is decided here from signed letter
counts, so the benchmark does not trust the code it measures to pick its
own inputs.
"""

import random
from itertools import product

LETTERS = "abcd"


def random_word(rng, letters, max_len):
    """A freely reduced word of length 1..max_len; capitals are inverses."""
    word = []
    for _ in range(rng.randint(1, max_len)):
        while True:
            x = rng.choice(letters)
            x = x if rng.random() < 0.5 else x.upper()
            if not word or word[-1] != x.swapcase():
                break
        word.append(x)
    return "".join(word)


def reduced_words(letters, max_len):
    """Every freely reduced word of length 1..max_len, in a fixed order."""
    alphabet = letters + letters.upper()
    out = []
    for n in range(1, max_len + 1):
        for w in product(alphabet, repeat=n):
            if all(x != y.swapcase() for x, y in zip(w, w[1:])):
                out.append("".join(w))
    return out


def rose_gm(words):
    """``.gm`` text of the rose map sending petal i to words[i]."""
    names = LETTERS[:len(words)]
    lines = ["vertices: v",
             "edges: " + " ; ".join(f"{x}: v -> v" for x in names),
             "base: v"]
    for x, w in zip(names, words):
        lines.append(f"map {x} -> " + " ".join(w))
    return "\n".join(lines) + "\n"


def words_of(gm_text):
    """Edge-image words of a rose ``.gm`` document, in petal order."""
    return [line.split("->", 1)[1].replace(" ", "")
            for line in gm_text.splitlines() if line.startswith("map ")]


def abelian_vector(word, n):
    """Signed letter counts of a word over the first n petals."""
    v = [0] * n
    for x in word:
        v[LETTERS.index(x.lower())] += 1 if x.islower() else -1
    return tuple(v)


def abelianization(words):
    """Matrix of the abelianized map: column j is the image of petal j."""
    cols = [abelian_vector(w, len(words)) for w in words]
    return [list(row) for row in zip(*cols)]


def is_unipotent_nontrivial(words):
    """(M - I)^n = 0 and M != I for the abelianized map M."""
    m = abelianization(words)
    n = len(m)
    nil = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if not any(any(row) for row in nil):
        return False
    power = nil
    for _ in range(n - 1):
        power = [[sum(power[i][t] * nil[t][j] for t in range(n))
                  for j in range(n)] for i in range(n)]
    return not any(any(row) for row in power)


def rose_maps(seed, count, petals=(2, 4), max_len=5):
    """``count`` random rose maps with a petal count in the closed range."""
    rng = random.Random(f"rose:{seed}")
    out = []
    for _ in range(count):
        n = rng.randint(*petals)
        out.append(rose_gm([random_word(rng, LETTERS[:n], max_len)
                            for _ in range(n)]))
    return out


def _nilpotent3(n):
    """A 3x3 integer matrix is nilpotent iff its characteristic polynomial
    is x^3: zero trace, zero sum of principal 2x2 minors, zero determinant.
    (The generator's fast form of ``is_unipotent_nontrivial``.)"""
    (a, b, c), (d, e, f), (g, h, i) = n
    return (a + e + i == 0
            and a * e - b * d + a * i - c * g + e * i - f * h == 0
            and a * (e * i - f * h) - b * (d * i - f * g)
            + c * (d * h - e * g) == 0)


def unipotent_maps(seed, count, max_len=4):
    """``count`` distinct random 3-rose maps whose homology action is
    unipotent and not the identity.

    The images of ``a`` and ``b`` are drawn uniformly from the reduced words
    of length <= max_len; the image of ``c`` is drawn among the words whose
    abelianization completes a unipotent matrix, if any does.
    """
    rng = random.Random(f"unipotent:{seed}")
    words = reduced_words(LETTERS[:3], max_len)
    by_vector = {}
    for w in words:
        by_vector.setdefault(abelian_vector(w, 3), []).append(w)
    by_third = {}
    for v in sorted(by_vector):
        by_third.setdefault(v[2], []).append(v)
    seen = set()
    out = []
    while len(out) < count:
        wa, wb = rng.choice(words), rng.choice(words)
        va, vb = abelian_vector(wa, 3), abelian_vector(wb, 3)
        # zero trace of M - I fixes the third entry of the third column
        third = 1 - (va[0] - 1) - (vb[1] - 1)
        fits = []
        for vc in by_third.get(third, ()):
            n = [[(va, vb, vc)[j][i] - (i == j) for j in range(3)]
                 for i in range(3)]
            if any(any(row) for row in n) and _nilpotent3(n):
                fits.append(vc)
        if not fits:
            continue
        triple = (wa, wb, rng.choice(by_vector[rng.choice(fits)]))
        if triple not in seen:
            seen.add(triple)
            out.append(rose_gm(triple))
    return out
