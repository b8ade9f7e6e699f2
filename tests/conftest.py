from fractions import Fraction

from colorsteinitz.cones import FarkasWitness, SpanCertificate, pos_membership
from colorsteinitz.ratlin import null_space, unit


def pt(*coords):
    return tuple(Fraction(c) for c in coords)


def units(d):
    """The 2d points +-e_1..+-e_d."""
    out = []
    for i in range(d):
        for s in (1, -1):
            out.append(tuple(Fraction(s) if j == i else Fraction(0) for j in range(d)))
    return tuple(out)


def simplex(d):
    """e_1..e_d and -(1,..,1): a positive basis of size d+1."""
    out = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(d)) for i in range(d)]
    out.append(tuple(Fraction(-1) for _ in range(d)))
    return tuple(out)


def reference_spans_space(generators):
    """spans_space() by LPs alone, without its (d+1)-point dependence path:
    the null_space() normal below rank d, else one pos_membership() LP per
    direction +e_1..+e_d, -e_1..-e_d up to the first that fails.  No memo."""
    generators = tuple(map(tuple, generators))
    d = len(generators[0])
    normals = null_space(list(generators))
    if normals:
        w = normals[0]
        axis = next(i for i, x in enumerate(w) if x)
        return FarkasWitness(w, unit(d, axis, 1 if w[axis] > 0 else -1))
    certs = []
    for direction in [unit(d, i) for i in range(d)] + [unit(d, i, -1) for i in range(d)]:
        res = pos_membership(direction, generators)
        if isinstance(res, FarkasWitness):
            return res
        certs.append((direction, res))
    return SpanCertificate(d, tuple(certs))
