"""Deterministic textual certificates.

Third parties can re-verify these with nothing but rational arithmetic; the
standalone checker in checkcert.py shares no code with the solver path.

Block grammar (one certificate per CERT..END block, several blocks per file):

    CERT conic|farkas|span|transversal
    DIM d
    PICK colour element          (transversal only, one per pick)
    GEN idx c1 c2 ... cd
    TARGET c1 ... cd             (conic, farkas)
    WITNESS c1 ... cd            (farkas)
    DIR c1 ... cd                (span/transversal: +e_1..+e_d then -e_1..-e_d)
    COEFF genidx value           (after TARGET or each DIR)
    END
"""

from __future__ import annotations

from .cones import ConicCertificate, FarkasWitness, SpanCertificate
from .ratlin import format_point


def _gen_lines(generators):
    return [f"GEN {i} {format_point(g)}" for i, g in enumerate(generators)]


def _coeff_lines(cert: ConicCertificate):
    return [
        f"COEFF {i} {c}"
        for i, c in zip(cert.generator_indices, cert.coefficients)
    ]


def render_conic(cert: ConicCertificate, generators) -> str:
    lines = [f"CERT conic", f"DIM {len(cert.target)}"]
    lines += _gen_lines(generators)
    lines.append(f"TARGET {format_point(cert.target)}")
    lines += _coeff_lines(cert)
    lines.append("END")
    return "\n".join(lines) + "\n"


def render_farkas(witness: FarkasWitness, generators) -> str:
    lines = [f"CERT farkas", f"DIM {len(witness.w)}"]
    lines += _gen_lines(generators)
    if witness.target is not None:
        lines.append(f"TARGET {format_point(witness.target)}")
    lines.append(f"WITNESS {format_point(witness.w)}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def _span_body(cert: SpanCertificate):
    lines = []
    for direction, sub in cert.certificates:
        lines.append(f"DIR {format_point(direction)}")
        lines += _coeff_lines(sub)
    return lines


def render_span(cert: SpanCertificate, generators) -> str:
    lines = [f"CERT span", f"DIM {cert.dim}"]
    lines += _gen_lines(generators)
    lines += _span_body(cert)
    lines.append("END")
    return "\n".join(lines) + "\n"


def render_transversal(picks, cert: SpanCertificate, generators) -> str:
    """Span certificate over the picked points; generator k is pick k's point."""
    lines = [f"CERT transversal", f"DIM {cert.dim}"]
    lines += [f"PICK {c} {e}" for c, e in picks]
    lines += _gen_lines(generators)
    lines += _span_body(cert)
    lines.append("END")
    return "\n".join(lines) + "\n"

