"""Exact integer linear algebra and integer polynomial utilities.

Everything here works over plain python ints (arbitrary precision); no
floating point is used.  Matrices are lists of lists, row-major.  Polynomials
are lists of coefficients, lowest degree first, with no trailing zeros
(the zero polynomial is ``[]``).
"""

from functools import lru_cache
from math import comb, gcd, prod

from .errors import ResourceLimitError, ValidationError


# ---------------------------------------------------------------------------
# basic matrix helpers


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def vec_mat(v, a):
    m = len(a[0]) if a else 0
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(m)]


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms


def _pivot(d, k):
    """(i, j): the first entry of least nonzero absolute value in the block
    i, j >= k, in row-major order, or None when the block is zero.  A unit
    ends the scan, as no later entry is smaller."""
    piv, best = None, 0
    for i in range(k, len(d)):
        for j, x in enumerate(d[i][k:], k):
            if x and (piv is None or abs(x) < best):
                piv, best = (i, j), abs(x)
                if best == 1:
                    return piv
    return piv


def smith_normal_form(mat):
    """Return (diag, T): the Smith diagonal d1 | d2 | ... of mat,
    nonnegative, and a unimodular T with S*mat*T = D for some unimodular S,
    which is not formed.  The columns of mat*T past the rank are zero.

    The pivot strategy is fixed so the output is reproducible.  A unit
    pivot divides every later entry, so it skips the divisibility scan.
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    d = [list(row) for row in mat]
    t = identity_matrix(nc)

    def col_op(i, j, f):  # col_i -= f*col_j
        for m in (d, t):
            for row in m:
                row[i] -= f * row[j]

    def swap_cols(i, j):
        for m in (d, t):
            for row in m:
                row[i], row[j] = row[j], row[i]

    k = 0
    while k < min(nr, nc):
        piv = _pivot(d, k)
        if piv is None:
            break
        d[k], d[piv[0]] = d[piv[0]], d[k]
        swap_cols(k, piv[1])
        # clear row and column k; restart if a division leaves a remainder
        while True:
            dirty = False
            for i in range(k + 1, nr):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                    if d[i][k]:
                        d[k], d[i] = d[i], d[k]
                        dirty = True
            for j in range(k + 1, nc):
                if d[k][j]:
                    col_op(j, k, d[k][j] // d[k][k])
                    if d[k][j]:
                        swap_cols(k, j)
                        dirty = True
            if not dirty:
                break
        # divisibility: d[k][k] must divide every later entry; fold the
        # first offending row into row k and redo
        p = d[k][k]
        culprit = None if abs(p) == 1 else next(
            (i for i in range(k + 1, nr) if any(x % p for x in d[i][k + 1:])),
            None)
        if culprit is not None:
            d[k] = [x + y for x, y in zip(d[k], d[culprit])]
            continue
        k += 1
    return [abs(d[i][i]) for i in range(min(nr, nc))], t


def hermite_row_form(mat):
    """Row-style Hermite normal form H of mat: the unique echelon basis of
    its row lattice.  Pivots are positive and entries above each pivot are
    reduced into [0, pivot).  Zero rows sink to the bottom."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    h = [list(row) for row in mat]
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if h[i][col]), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        # gcd out the column below the pivot
        for i in range(r + 1, nr):
            while h[i][col]:
                q = h[r][col] // h[i][col]
                h[r] = [x - q * y for x, y in zip(h[r], h[i])]
                h[r], h[i] = h[i], h[r]
        if h[r][col] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][col] // h[r][col]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
        if r == nr:
            break
    return h


# ---------------------------------------------------------------------------
# integer polynomials (lists, lowest degree first)


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod_monic(p, q, modulus=None):
    """Divide p by q where q is monic with integer coefficients; with a
    ``modulus``, divide in (Z/modulus)[x] and reduce the results."""
    if not q or q[-1] != 1:
        raise ValidationError("divisor must be monic")
    rem = list(p)
    dq = len(q) - 1
    quo = [0] * max(0, len(p) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] % modulus if modulus else rem[i]
        if c:
            quo[i - dq] = c
            for j in range(dq + 1):
                rem[i - dq + j] -= c * q[j]
    if modulus:
        rem = [c % modulus for c in rem]
    return poly_trim(quo), poly_trim(rem)


def poly_mul_mod(a, b, q):
    """Product of two polynomials modulo q (coefficients in [0, q)), by
    Kronecker substitution: one big-integer product, each coefficient in
    its own slot wide enough for a sum of min(len) products below q^2."""
    if not a or not b:
        return []
    width = (2 * q.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8

    def pack(p):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in p),
                              "little")

    size = len(a) + len(b) - 1
    data = (pack(a) * pack(b)).to_bytes(width * size, "little")
    return [int.from_bytes(data[i * width:(i + 1) * width], "little") % q
            for i in range(size)]


def poly_mul(a, b):
    """Exact product of two integer polynomials, by Kronecker substitution
    with signed coefficients: each slot is wide enough for any product
    coefficient c, and holds c + half, half the slot's range, so a slot
    never carries into the next.  An operand packs in one join of such
    slots, less ``offset``, half in each of them."""
    if not a or not b:
        return []
    size = len(a) + len(b) - 1
    big = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = (big.bit_length() + 8) // 8       # |c| <= big < half
    half = 1 << (8 * width - 1)

    def offset(slots):
        return int.from_bytes(half.to_bytes(width, "little") * slots, "little")

    def pack(p):     # sum of c_i * 2^(8 * width * i)
        return int.from_bytes(b"".join((c + half).to_bytes(width, "little")
                                       for c in p), "little") - offset(len(p))

    data = (pack(a) * pack(b) + offset(size)).to_bytes(width * size, "little")
    return [int.from_bytes(data[i * width:(i + 1) * width], "little") - half
            for i in range(size)]


def poly_product(polys, q=None):
    """Product of many polynomials, exactly or modulo q, multiplied pairwise
    up a balanced tree so the large products are few."""
    mul = poly_mul if q is None else (lambda a, b: poly_mul_mod(a, b, q))
    polys = list(polys) or [[1]]
    while len(polys) > 1:
        polys = [mul(polys[i], polys[i + 1]) if i + 1 < len(polys)
                 else polys[i] for i in range(0, len(polys), 2)]
    return polys[0]


def prime_factors(n):
    """The distinct primes dividing n, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def totient(n):
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1  # x^n - 1
    rem = num
    for d in range(1, n):
        if n % d == 0:
            rem, r = poly_divmod_monic(rem, list(cyclotomic_polynomial(d)))
            assert not r
    return tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_orders_up_to_degree(deg):
    """All n with totient(n) <= deg, ascending, as a tuple.

    Uses n/totient(n) < 6 for n < 2*10^8 (attained only towards the
    primorial 223092870), so n <= 6*deg + 30 is a safe cutoff.
    """
    if deg < 1:
        return ()
    bound = 6 * deg + 30
    return tuple(n for n in range(1, bound + 1) if totient(n) <= deg)


# ---------------------------------------------------------------------------
# exact characteristic polynomials, multimodularly
#
# Residues modulo products of up to CRT_GROUP word-size primes are
# recombined by CRT against an a priori coefficient bound.  One prime
# source serves every caller: primes q = 1 (mod n) above 2^62, each with a
# primitive n-th root of unity in F_q.


CRT_PRIME_CAP = 64   # primes one reconstruction may use: 3968 bits
# Pool primes per residue computation (``multimodular``).  On the 3 x 3
# character blocks and on dense 40 x 40 and 100 x 100 ``charpoly_int``, one
# residue per prime took 1.5 to 3 times as long as groups of four, groups
# of four to eight were within noise of each other, and one residue modulo
# every prime at once was slower again.
CRT_GROUP = 4


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # deterministic for n < 3.3e24 with these bases
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def pool_prime(n, i):
    """The i-th prime q = 1 (mod n) above 2^62, ascending; generated on
    demand and cached.  For n = 1 these are simply the primes above 2^62."""
    step = n if n % 2 == 0 else 2 * n      # q odd
    if i == 0:
        q = (1 << 62) // step * step + 1
        if q <= 1 << 62:
            q += step
    else:
        q = pool_prime(n, i - 1) + step
    while not _is_probable_prime(q):
        q += step
    return q


@lru_cache(maxsize=None)
def prime_root(n, i):
    """(q, w): q = ``pool_prime(n, i)`` and a primitive n-th root of unity
    w modulo q (the smallest-base power g^((q-1)/n) of exact order n); for
    n = 1, w = 1.  Finding w factors n."""
    q = pool_prime(n, i)
    factors = prime_factors(n)
    g = 2
    while True:
        w = pow(g, (q - 1) // n, q)
        if all(pow(w, n // p, q) != 1 for p in factors):
            return q, w
        g += 1


def crt_primes(n, radius, order=1):
    """The first primes ``pool_prime(order, .)`` whose product exceeds 2B +
    1, B the bound max_i C(n, i) * radius^i on the coefficients of a monic
    degree-n polynomial whose roots have modulus at most ``radius``, an int
    or a Fraction; ResourceLimitError when more than CRT_PRIME_CAP are
    needed.  Only primes are generated: no residue, no root of unity, so n
    may be a lower bound for a degree whose exact value would need a
    factorisation.

    B lies between the mean (1 + radius)^n // (n + 1) and the sum (1 +
    radius)^n of its n + 1 terms.  Every pool prime exceeds 2^62, so the
    mean's primes mostly exceed twice the sum already, and B itself is
    evaluated only when they do not: its terms grow while (n - i) * radius
    > i + 1, so it is C(n, i) * radius^i at the first i >= (n * radius - 1)
    / (radius + 1).  Past degree 2 * 62 * CRT_PRIME_CAP a degree above m =
    2b, b the bit length of the cap's prime product (so b > 62 *
    CRT_PRIME_CAP), is decided from the mean at degree m, an integer of
    about m bits, which B at degree n exceeds: for radius >= 1 that mean
    exceeds 2^b and is refused, and for radius 0, B = 1 and one prime does.
    """
    m = n
    if n > 2 * 62 * CRT_PRIME_CAP:
        cap = prod(pool_prime(order, i) for i in range(CRT_PRIME_CAP))
        m = min(n, 2 * cap.bit_length())
    primes = []
    modulus = 1

    def exceed(bound):
        nonlocal modulus
        while modulus <= 2 * bound + 1:
            if len(primes) == CRT_PRIME_CAP:
                raise ResourceLimitError("charpoly: prime pool exhausted")
            primes.append(pool_prime(order, len(primes)))
            modulus *= primes[-1]

    exceed((1 + radius) ** m // (m + 1))
    if m == n and modulus <= 2 * (1 + radius) ** n + 1:
        i = max(0, -(-(n * radius - 1) // (radius + 1)))
        exceed(comb(n, i) * radius ** i)
    return primes


def _crt_basis(moduli):
    """For pairwise coprime moduli, the integers 1 modulo each one and 0
    modulo the others, in order."""
    m = prod(moduli)
    return [m // q * pow(m // q, -1, q) for q in moduli]


@lru_cache(maxsize=None)
def _group_root(order, start, size):
    """(m, w): the product m of the ``size`` pool primes ``pool_prime(order,
    start + i)``, and w, by CRT, the primitive order-th root of unity
    ``prime_root`` gives modulo each of them."""
    roots = [prime_root(order, start + i) for i in range(size)]
    basis = _crt_basis([q for q, _w in roots])
    m = prod(q for q, _w in roots)
    return m, sum(w * e for (_q, w), e in zip(roots, basis)) % m


def multimodular(n, radius, residues, order=1):
    """The monic integer polynomial of degree n (ascending, n + 1
    coefficients) whose roots have modulus at most ``radius``, from
    ``residues(m, w)``: its coefficients modulo m, a product of up to
    CRT_GROUP primes q of ``pool_prime(order, .)``, with w a primitive
    order-th root of unity modulo each q (by CRT from ``prime_root``).

    The primes needed are counted (``crt_primes``) before any residue is
    computed; ResourceLimitError when more than CRT_PRIME_CAP are.  The cap
    bounds one reconstruction: a caller that reconstructs a product factor
    by factor (``covers.orbit_polynomials``, one factor per Galois orbit of
    characters) counts the primes of its largest factor before the first
    residue of any factor.  One residues call per group, not per prime,
    keeps the interpreter's per-operation cost, which dominates on small
    matrices, from growing with the prime count.
    """
    primes = crt_primes(n, radius, order)
    groups = [_group_root(order, start, min(CRT_GROUP, len(primes) - start))
              for start in range(0, len(primes), CRT_GROUP)]
    coeffs = [0] * (n + 1)
    for (m, w), lift in zip(groups, _crt_basis([m for m, _w in groups])):
        for k, c in enumerate(residues(m, w)):
            coeffs[k] += c * lift
    modulus = prod(primes)
    out = []
    for c in coeffs:
        c %= modulus
        out.append(c - modulus if c > modulus // 2 else c)
    return out


def charpoly_mod(rows, m):
    """Characteristic polynomial of an integer matrix modulo m, monic,
    ascending coefficients in [0, m); m is a prime or a product of
    distinct primes.

    The Hessenberg reduction inverts each pivot modulo m.  While every
    pivot is a unit, each step maps onto the same step modulo each prime of
    m, so the result is the CRT of the per-prime polynomials.  A pivot that
    is not a unit is zero modulo some primes of m, where the reduction
    picks a later pivot: m splits there by gcd into two coprime halves,
    each is reduced on its own, and CRT joins them."""
    n = len(rows)
    h = [[x % m for x in row] for row in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        try:
            inv = pow(h[j + 1][j], -1, m)
        except ValueError:       # a zero divisor: split m at it
            g = gcd(h[j + 1][j], m)
            halves = (g, m // g)
            polys = [charpoly_mod(rows, half) for half in halves]
            return [sum(c * e for c, e in zip(cs, _crt_basis(halves))) % m
                    for cs in zip(*polys)]
        for i in range(j + 2, n):
            f = h[i][j] * inv % m
            if f:
                hi, hj1 = h[i], h[j + 1]
                for k in range(j, n):
                    hi[k] = (hi[k] - f * hj1[k]) % m
                for row in h:
                    row[j + 1] = (row[j + 1] + f * row[i]) % m
    # charpoly of leading blocks of the Hessenberg form
    polys = [[1]]
    for i in range(1, n + 1):
        a = h[i - 1][i - 1]
        prev = polys[i - 1]
        cur = [0] * (i + 1)
        for deg, cf in enumerate(prev):
            cur[deg + 1] = (cur[deg + 1] + cf) % m
            cur[deg] = (cur[deg] - a * cf) % m
        beta = 1
        for k in range(i - 1, 0, -1):
            beta = beta * h[k][k - 1] % m
            coef = h[k - 1][i - 1] * beta % m
            if coef:
                pk = polys[k - 1]
                for deg, cf in enumerate(pk):
                    cur[deg] = (cur[deg] - coef * cf) % m
        polys.append(cur)
    return polys[n]


def charpoly_int(rows):
    """Exact characteristic polynomial det(xI - M) of a dense integer
    matrix, ascending coefficients.  No production path calls it: a tower
    level's polynomial comes from ``covers.orbit_polynomials``, and growth
    rate 1 from the transition graph's components.  Applied to a cover's
    dense H1 matrix (``covers.h1_action_on_cover``), it is the dense
    reference that the tests and the benchmark's ladder fixtures are built
    from, and ``perfbench/spans.py`` times it by name."""
    n = len(rows)
    if n == 0:
        return [1]
    norm = max(1, max(sum(abs(x) for x in row) for row in rows))
    return multimodular(n, norm, lambda q, _w: charpoly_mod(rows, q))
