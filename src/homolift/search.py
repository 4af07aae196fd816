"""Detection criteria and the end-to-end certificate pipeline.

The criteria are sufficient conditions, decided exactly, for some finite
abelian cover to carry a lifted homology action with an eigenvalue off the
unit circle; each firing converts into a concrete cover whose integer
characteristic polynomial is then certified by the cyclotomic test.  The
comparison threshold is always the edge count, with strict inequality, in
exact arithmetic: ties never fire.

An independent brute-force oracle enumerates the reduction-mod-k covers
directly, and a tower search iterates abelian covers (so every certified
cover group is solvable).  A tower level, an ``Analysis``, carries its base
map, tower and degree, so the level is all that these pass on.
"""

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import prod, sqrt

from . import linalg, magnus
from .covers import (CoverCertificate, FiniteQuotient, TowerStep, abelian_cover,
                     lift_map, monic_coefficients, orbit_polynomials,
                     unit_circle_test)
from .errors import (CertificateError, ParseError, ResourceLimitError,
                     ValidationError)
from .graphs import parse_graph_map, serialize_graph_map
from .homology import equivariant_quotient, homology_action, spanning_tree
from .laurent import Lattice, character_grid, l2_norm_squared, specialize
from .transition import DEFAULT_CYCLE_CAP, _growth_is_one, transition_graph


@dataclass(frozen=True)
class SearchConfig:
    max_power: int = 8
    max_character_order: int = 12
    max_lattice_index: int = 64
    max_tower_depth: int = 3
    max_cover_degree: int = 2000
    cycle_cap: int = DEFAULT_CYCLE_CAP

    def __post_init__(self):
        for name in ("max_power", "max_character_order", "max_lattice_index",
                     "max_tower_depth", "max_cover_degree", "cycle_cap"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")


@dataclass(frozen=True)
class Finding:
    kind: str                # direct | l2 | anchored | character
    power: int = None
    value: str = None        # display form of the triggering quantity
    lattice: object = None
    character: object = None
    witness: tuple = None    # for direct findings

    def to_json(self):
        out = {"kind": self.kind}
        if self.power is not None:
            out["power"] = self.power
        if self.value is not None:
            out["value"] = self.value
        if self.lattice is not None:
            out["lattice"] = {
                "basis": [list(r) for r in self.lattice.basis],
                "translate": list(self.lattice.translate),
            }
        if self.character is not None:
            out["character"] = {"order": self.character.order,
                                "exponents": list(self.character.exponents)}
        if self.witness is not None:
            out["witness"] = [int(c) for c in self.witness]
        return out


class Analysis:
    """One tower level and its products, each computed once, on first use:
    ``level`` is the base map ``base`` or the LiftedMap (also ``lifted``)
    that the TowerSteps in ``tower``, of total ``degree``, lead to.  A
    lifted level's verdict reads only the lift's fiber-zero rows; its
    graph map is built when something else reads it.  A base level comes
    from ``of`` alone, which keeps the last one it built."""

    _last = None    # (canonical text, Analysis) of the last base level

    def __init__(self, level, base, tower):
        self.level = level
        self.lifted = level if tower else None
        self.base = base
        self.tower = tower

    @staticmethod
    def of(f):
        """The base level of the graph map ``f``.  Every product is a
        function of f's canonical text, the one ``input_digest`` hashes, so
        the last base level built is returned again for a map of the same
        text: analyze, search and verify of one map in one process derive
        it once.  Its ``level`` equals f but may be another object."""
        text = serialize_graph_map(f)
        last = Analysis._last    # read once: another thread may replace it
        if last is None or last[0] != text:
            last = Analysis._last = (text, Analysis(f, f, ()))
        return last[1]

    @property
    def degree(self):
        return prod(step.degree for step in self.tower)

    @property
    def graph_map(self):
        return self.level if self.lifted is None else self.lifted.map

    @cached_property
    def tree(self):
        return spanning_tree(self.graph_map.graph)

    @cached_property
    def action(self):
        return homology_action(self.graph_map, self.tree)

    @cached_property
    def quotient(self):
        return equivariant_quotient(self.action, self.tree)

    @cached_property
    def transition(self):
        return transition_graph(self.graph_map, self.quotient)

    @cached_property
    def matrix(self):
        return magnus.magnus_matrix(self.transition)

    @cached_property
    def orbit_factors(self):
        """The integer characteristic polynomial of the H1 action, factored
        over the Galois orbits of the deck group's characters: a pair (o,
        N_O) per orbit, o the exact order of its characters.  A lifted
        level's come from ``orbit_polynomials``.  The base level's one
        factor is the charpoly of its r x r H1 matrix, the one ``quotient``
        reads: exactly over Z from its principal minors when r <= 4, else by
        CRT against L, the longest edge image, as rho(f*) <= rho(C) <= L
        for the count matrix C."""
        if self.tower:
            return orbit_polynomials(self.level)
        f, h1 = self.level, self.action.matrix
        if len(h1) <= 4:
            return ((1, linalg.small_charpoly(h1)),)
        longest = max(len(f.edge_image[e.name].steps) for e in f.graph.edges)
        return ((1, linalg.multimodular(
            len(h1), longest, lambda m, _w: linalg.charpoly_mod(h1, m))),)

    @cached_property
    def charpoly(self):
        """Integer characteristic polynomial of the H1 action, ascending:
        the verdict's witness times x^z and its cyclotomic factors, which
        by unique factorisation is the product of the orbit factors."""
        v = self.verdict
        factors = [list(linalg.cyclotomic_polynomial(n))
                   for n, mult in v.cyclotomic_factors for _ in range(mult)]
        return [0] * v.zero_multiplicity + linalg.poly_product(
            factors + [list(v.witness)] if v.witness else factors)

    @cached_property
    def verdict(self):
        orders, polys = zip(*self.orbit_factors)
        return unit_circle_test(*polys, orders=orders)

    def cover(self, spec):
        """The next tower level: the cover of this level's graph given by a
        finite quotient of its dynamical quotient (a modulus k for H_f/kH_f,
        or a basis matrix, or the FiniteQuotient they name), with the
        lifted map, its tower one step longer."""
        cover = abelian_cover(self.graph_map.graph, self.quotient, spec)
        return Analysis(lift_map(self.graph_map, cover), self.base,
                        self.tower + (TowerStep.of(cover.quotient),))


def input_digest(f):
    return hashlib.sha256(serialize_graph_map(f).encode()).hexdigest()


# ---------------------------------------------------------------------------
# criteria


def check_direct(f, analysis=None):
    """Off-circle eigenvalue of the homology action itself.  ``f`` is a
    graph map, read as a base level only when ``analysis``, its Analysis,
    is not given; a lifted level is read through its Analysis."""
    verdict = (analysis or Analysis.of(f)).verdict
    if verdict.all_on_circle:
        return None
    return Finding("direct", value=f"{verdict.modulus:.9f}",
                   witness=verdict.witness)


def check_l2(a, cfg):
    """First power whose trace has squared coefficient norm above size^2."""
    m = a.size
    for k in range(1, cfg.max_power + 1):
        n2 = l2_norm_squared(magnus.trace_power(a, k))
        if n2 > m * m:
            return Finding("l2", power=k, value=str(sqrt(n2)))
    return None


def _support_width(t):
    """The largest spread of a nonzero element's support in one
    coordinate."""
    return max((max(v[i] for v in t.terms) - min(v[i] for v in t.terms)
                for i in range(t.dim)), default=0)


def check_anchored(a, cfg):
    """Scan scaled lattices and their support translates for a trace mass
    above the matrix size.

    The translates jZ^d + w are tried for j = 1, 2, ... (index j^d up to
    the cap), w = 0 first, then the trace's support in sorted order.  The
    mass of trace(A^k) on jZ^d + w is the sum of the coefficients whose
    exponent is congruent to w modulo j, so one pass over the support per
    (k, j) bins it by residue class, and the first translate whose class
    mass exceeds the size is the finding: no lattice is built until then.

    Two cuts leave the finding as it is.  A class mass is at most the sum
    of the trace's positive coefficients, so a power whose positive mass
    is at most the size is skipped.  Once j exceeds the support's width
    (its largest spread in one coordinate) no two support points share a
    class, so every such j has the same class masses, the coefficients
    themselves: the scan stops after j = width + 1, as no larger j can
    fire where it did not.
    """
    m = a.size
    d = a.dim
    js = [1]
    j = 2
    while d > 0 and j ** d <= cfg.max_lattice_index:
        js.append(j)
        j += 1
    zero = (0,) * d
    for k in range(1, cfg.max_power + 1):
        t = magnus.trace_power(a, k)
        if sum(c for c in t.terms.values() if c > 0) <= m:
            continue
        for j in js[:_support_width(t) + 1]:
            mass = {}
            for v, c in t.terms.items():
                r = tuple(x % j for x in v)
                mass[r] = mass.get(r, 0) + c
            if max(mass.values()) <= m:
                continue
            for w in [zero] + t.support():
                val = mass.get(tuple(x % j for x in w), 0)
                if val > m:
                    return Finding("anchored", power=k, value=str(val),
                                   lattice=Lattice.scaled(d, j, w))
    return None


def _above(z, m):
    """|z| > m for a cyclotomic z, decided exactly.

    A rigorous float filter settles most values first: evaluating z of
    order n in floats is off by less than (n + 30) * 1.2e-16 times its
    coefficient mass l1 (the phase and product roundings of each term, then
    the running sum), well inside the margin err below.  So with r the
    float modulus, (r + err)^2 < m^2 - err means below and r - err > m
    means above, and only ties and near-ties reach the exact comparison.
    """
    l1 = float(sum(abs(c) for c in z.coeffs))
    err = l1 * (z.order + 1000) * 1e-15 + 1e-12
    r = abs(z.to_complex())
    if (r + err) ** 2 < m * m - err:
        return False
    if r - err > m:
        return True
    return z.magnitude_squared().compare(Fraction(m * m)) > 0


def _exact_characters(d, q):
    """The q-grid's characters of exact order q, in grid order."""
    return (chi for chi in character_grid(d, q) if chi.exact_order() == q)


def character_scan(a, cfg):
    """Grid of root-of-unity characters; first with |trace(A^k)| above size,
    decided in exact cyclotomic arithmetic.  The orders q ascend to
    ``cfg.max_character_order`` (in a search, at most the level's order
    bound), and each character is tried once, in the grid of its exact
    order q."""
    m = a.size
    d = a.dim
    traces = [magnus.trace_power(a, k) for k in range(1, cfg.max_power + 1)]
    # |t(chi)| <= l1 norm, so powers with small l1 mass cannot fire
    viable = [sum(abs(c) for c in t.terms.values()) > m for t in traces]
    if not any(viable):
        return None
    for q in range(1, cfg.max_character_order + 1):
        for chi in _exact_characters(d, q):
            for k in range(1, cfg.max_power + 1):
                if not viable[k - 1]:
                    continue
                z = specialize(traces[k - 1], chi)
                if _above(z, m):
                    return Finding("character", power=k,
                                   value=str(abs(z.to_complex())),
                                   character=chi)
    return None


# ---------------------------------------------------------------------------
# converting findings into certificates


METHODS = {"direct": "direct", "l2": "l2trace", "anchored": "anchoring",
           "character": "character"}


def _order_bound(degree, d, cap):
    """Largest order B with degree * B**d <= cap, that is B**d <= n = cap
    // degree: the character orders whose H_f/B H_f cover still fits under
    the cap at a tower level of this degree, or 0 when none does.  In
    integers, so any cap is exact: B doubles past the bound, then bisects."""
    n = cap // degree
    if n < 1:
        return 0
    lo, hi = 1, 2
    while d and hi ** d <= n:    # with d = 0 every character is trivial,
        lo, hi = hi, 2 * hi      # and 1 stands for every order
    while hi - lo > 1:    # lo**d <= n < hi**d
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** d <= n else (lo, mid)
    return lo


def _locate_character(an, finding, bound):
    """A concrete root-of-unity character of exact order at most ``bound``
    with |trace(A^k)| above the size, extracted from an averaging or
    Parseval argument.

    Existence is guaranteed inside the annihilator set (anchored: the
    j-grid, whose exact orders divide j) or the Parseval grid (l2: orders
    up to the support width plus one).  The exact orders q ascend, so the
    certifying cover is as small as the evidence allows; at the first q
    above the bound the cap is to blame and ResourceLimitError is raised.
    """
    a = an.matrix
    m = a.size
    k = finding.power
    if finding.kind == "character":
        return finding.character
    t = magnus.trace_power(a, k)
    if finding.kind == "anchored":
        # check_anchored's lattices are jZ^d, annihilated by the j-grid
        basis = finding.lattice.basis
        j = basis[0][0] if basis else 1
        orders = [q for q in range(1, j + 1) if j % q == 0]
    else:  # l2: a grid finer than the support width carries exact Parseval
        orders = range(1, _support_width(t) + 2)
    for q in orders:
        if q > bound:
            raise ResourceLimitError(
                f"no character of order at most {bound} is above the "
                f"threshold at power {k}; higher orders exceed the cover "
                f"degree cap")
        for chi in _exact_characters(a.dim, q):
            if _above(specialize(t, chi), m):
                return chi
    raise CertificateError(
        f"{finding.kind} finding at power {k} produced no character above "
        f"the threshold; this contradicts the averaging identity")


def _certificate(level, method, finding):
    """Assemble the certificate for the tower level ``level`` held by the
    caller, and check it with verify_certificate, which replays the
    tower's cover levels on the base level ``Analysis.of`` keeps."""
    verdict = level.verdict
    if verdict.all_on_circle:
        raise CertificateError(
            f"finding did not convert: tower "
            f"{[s.quotient for s in level.tower]} has all eigenvalues on the "
            f"unit circle (method {method})")
    cert = CoverCertificate(
        input_digest=input_digest(level.base),
        input_text=serialize_graph_map(level.base),
        power=1,
        tower=level.tower,
        degree=level.degree,
        charpoly=tuple(level.charpoly),
        verdict=verdict.tag,
        witness_factor=verdict.witness,
        modulus=verdict.modulus,
        zero_multiplicity=verdict.zero_multiplicity,
        method=method,
        finding=finding.to_json() if finding is not None else None)
    report = verify_certificate(cert)
    if not report["ok"]:
        raise CertificateError("certificate failed self-verification: "
                               + "; ".join(report["failures"]))
    return cert


def _certify(an, finding, bound):
    """Turn a finding on the tower level ``an`` into a verified
    certificate: the level itself for the direct check or a trivial
    character, else one more H_f/nH_f step with n the located character's
    exact order: a character scan's, run to ``bound``, the level's
    ``_order_bound``, or one located within it for l2 and anchored."""
    method = "tower" if an.tower else METHODS[finding.kind]
    if finding.kind != "direct":
        order = _locate_character(an, finding, bound).exact_order()
        if order > 1:
            an = an.cover(order)
    return _certificate(an, method, finding)


def rebuild_tower(f, tower):
    """Replay a tower of abelian covers from the base map ``f``, whose
    level is ``Analysis.of(f)``, and return its final level, whose
    ``tower`` is then the recorded one.  Each step's
    quotient is taken of the current level's own dynamical quotient, and
    the step it rebuilds must equal the recorded one before its cover is
    built.
    """
    level = Analysis.of(f)
    for step in tower:
        spec = step.modulus if step.modulus is not None else step.basis
        if spec is None:
            raise CertificateError(f"tower step {step.quotient} not rebuildable")
        try:
            fq = FiniteQuotient.of(level.quotient.rank, spec)
        except ValidationError as exc:
            raise ValidationError(f"tower step {step.to_json()}: {exc}") \
                from exc
        rebuilt = TowerStep.of(fq)
        if rebuilt != step:
            raise CertificateError(f"tower step {step.to_json()} rebuilds "
                                   f"as {rebuilt.to_json()}")
        level = level.cover(fq)
    return level


def verify_certificate(cert):
    """Re-derive the verdict from the stored tower; everything exact.

    The verdict checks read only the rebuilt level's verdict, decided one
    Galois orbit at a time.  A tower that does not rebuild, or whose
    polynomial is not the stored one, skips them and fails on that alone:
    a stored polynomial is only checked to be monic and compared.  The
    embedded input is parsed and its digest checked every time; its base
    level is ``Analysis.of``'s, so the process that searched for the
    certificate rebuilds only its cover levels."""
    failures = []
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    try:
        f = parse_graph_map(cert.input_text)
    except ParseError as exc:
        check("input-parses", False, str(exc))
        return {"ok": False, "checks": checks, "failures": failures}
    check("input-digest", input_digest(f) == cert.input_digest,
          "embedded input does not match the recorded digest")

    try:
        cp = monic_coefficients(cert.charpoly)
    except ValidationError as exc:
        check("charpoly-monic", False, str(exc))
        return {"ok": False, "checks": checks, "failures": failures}
    try:
        level = rebuild_tower(f, cert.tower)
    except (CertificateError, ValidationError) as exc:
        level, rebuild_error = None, exc
    # a rebuilt level is a connected cover, of H1 rank degree (E - V) + 1,
    # so a polynomial of another length fails before the level's is formed
    g = f.graph
    rebuilt = (level is not None and len(cp) == level.degree * (
        len(g.edges) - len(g.vertices)) + 2 and level.charpoly == cp)
    if rebuilt:
        verdict = level.verdict
        check("verdict", verdict.tag == cert.verdict,
              f"recomputed {verdict.tag}, stored {cert.verdict}")
        check("witness", tuple(verdict.witness) == tuple(cert.witness_factor),
              "witness factor does not match the cyclotomic-stripped "
              "remainder")
        if not verdict.all_on_circle:
            witness = list(cert.witness_factor)
            monic = bool(witness) and witness[-1] == 1
            check("witness-divides",
                  monic and not linalg.poly_divmod_monic(cp, witness)[1],
                  "stored witness does not divide the stored polynomial"
                  if monic else "stored witness is not monic")
            r = verdict.modulus    # compared exactly with an int of any size
            check("modulus", r - 1e-6 < cert.modulus < r + 1e-6,
                  f"recomputed modulus {r}, stored {cert.modulus}")
    check("power", cert.power == 1, f"stored power {cert.power}, expected 1")
    if rebuilt:
        zeros = verdict.zero_multiplicity
        check("zero-eigenvalues", cert.zero_multiplicity == zeros,
              f"recomputed {zeros}, stored {cert.zero_multiplicity}")
    check("off-circle", cert.verdict == "off_unit_circle",
          "certificate does not claim an off-circle eigenvalue")

    if level is None:
        check("tower-rebuild", False, str(rebuild_error))
    else:
        check("tower-degree", level.degree == cert.degree,
              f"rebuilt total degree {level.degree}, stored {cert.degree}")
        check("charpoly-rebuild", rebuilt,
              "characteristic polynomial of the rebuilt tower differs")
    return {"ok": not failures, "checks": checks, "failures": failures}


# ---------------------------------------------------------------------------
# oracle and tower search


# A count matrix C of spectral radius 1 answers for every finite cover and
# every lift: a cover edge's image is as long as the image of the edge
# below it, so the powers of the lifted count matrix have the row sums of
# the C^j, and its radius is at most 1.  The lift's chain map is dominated
# entrywise by it, and H1 is an invariant subspace of the 1-chains, so every
# lifted H1 eigenvalue has modulus at most 1: by Kronecker, 0 or a root of
# unity.
GROWTH_ONE = ("depth 0: growth rate is 1, so no lift to any finite cover "
              "has a homology eigenvalue off the unit circle")


def brute_force_oracle(f, max_degree):
    """Enumerate reduction-mod-k covers in order and certify the first whose
    lifted homology action leaves the unit circle; independent of the
    criteria machinery.  At growth rate 1 no cover is built (GROWTH_ONE).
    The base level has degree 1, so ``max_degree`` must be positive."""
    if max_degree < 1:
        raise ValidationError("max_degree must be positive")
    base = Analysis.of(f)
    for k in range(1, _order_bound(1, base.quotient.rank, max_degree) + 1):
        level = base.cover(k) if k > 1 else base
        if not level.verdict.all_on_circle:
            return _certificate(level, "brute-force", None)
        if k == 1 and _growth_is_one(base.transition):
            return None
    return None


def tower_search(f, cfg=None, diagnostics=None):
    """Criteria-driven search over iterated abelian covers.

    Returns the first certificate in a fixed traversal order (direct check,
    then the three criteria, then covers by ascending modulus, depth first),
    or None when the configured bounds are exhausted.  At growth rate 1
    there is none in any cover, and the search says so after the base
    level's direct check, before any cover is built (GROWTH_ONE).  No
    cover past ``max_cover_degree`` is built or scanned for.
    """
    cfg = cfg or SearchConfig()
    if diagnostics is None:
        diagnostics = []
    return _tower_search(Analysis.of(f), cfg, diagnostics)


def _tower_search(an, cfg, diagnostics):
    """Search from the tower level ``an``, at depth ``len(an.tower)``; its
    ``_order_bound`` caps the character scan, conversion and child moduli.

    A level whose bound is below 2 is a leaf, and the search leaves it once
    its direct check is silent: every H1 eigenvalue then has modulus at
    most 1, and so has every eigenvalue of the trivial character's block,
    the level's signed chain map, whose others are the vertex map's.  So
    no trivial character is above the threshold, no finding converts, and
    no child H_f/kH_f (k >= 2) fits.  Twice the degree past the cap makes
    a leaf before the quotient is built."""
    finding = check_direct(an.level, an)
    if finding is not None:
        return _certify(an, finding, 1)    # the level itself: no cover
    if not an.tower and _growth_is_one(an.transition):
        diagnostics.append(GROWTH_ONE)
        return None

    if 2 * an.degree > cfg.max_cover_degree:
        return None
    bound = _order_bound(an.degree, an.quotient.rank, cfg.max_cover_degree)
    if bound < 2:
        return None
    level_cfg = replace(cfg, max_character_order=min(
        cfg.max_character_order, bound))
    for criterion in (check_l2, check_anchored, character_scan):
        finding = criterion(an.matrix, level_cfg)
        if finding is None:
            continue
        try:
            return _certify(an, finding, bound)
        except (CertificateError, ResourceLimitError) as exc:
            diagnostics.append(f"depth {len(an.tower)}: {finding.kind} "
                               f"finding did not convert: {exc}")

    if len(an.tower) >= cfg.max_tower_depth:
        return None
    for k in range(2, bound + 1):
        found = _tower_search(an.cover(k), cfg, diagnostics)
        if found is not None:
            return found
    return None
