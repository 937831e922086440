"""Bit-for-bit fixture checks, tied to the numeric fingerprint.

Frozen values (tests/_frozen.py) reproduce bit for bit only under the numeric
fingerprint they were generated under (zetalab.quadrature.numeric_fingerprint).
The checks stay exact; on a mismatch the message names both fingerprints, so
that a run in another numeric environment says so instead of showing a bare
float mismatch.
"""

import _frozen as F
from zetalab.quadrature import numeric_fingerprint


def frozen_mismatch(name: str) -> str:
    """Assertion message for a frozen value that was not reproduced."""
    here, frozen_under = numeric_fingerprint(), F.FINGERPRINT
    if here == frozen_under:
        return "%s changed under the fingerprint it was frozen under (%s)" % (name, here)
    return (
        "%s was frozen under fingerprint [%s] but this run is under [%s]; values are "
        "bit-identical only per fingerprint: regenerate with tools/make_fixtures.py"
        % (name, frozen_under, here)
    )
