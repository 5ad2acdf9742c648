#!/usr/bin/env python3
"""Certificates: every claim either re-checks arithmetically or is a tagged
assumption.

Builds the Theorem-C style partition for PSL_13(4), the 2K2 witness refuting
splitness of its uncompacted prime graph, and re-audits both through the
independent checker.
"""

from gksplit import gkbuild, groups
from gksplit.certificates import certificate_from_json, recheck

d = groups.classical("A", 12, 4)  # PSL_13(4)
print(f"{d}: compact split partition for dimension 13 over GF(4)")
cert = gkbuild.classical_compact_partition(d)
c, i = cert.partition.as_sorted()
print("clique side:     ", ", ".join(f"{v.name}{v.members}" for v in c))
print("independent side:", ", ".join(f"{v.name}{v.members}" for v in i))
print(f"certificate: {len(cert.checked_steps())} arithmetic checks, "
      f"{len(cert.assumptions())} tagged assumptions")
print("re-check failures:", recheck(cert) or "none")
print()

print("Same group, uncompacted: the prime graph is NOT split.")
wcert = gkbuild.nonsplit_witness_linear(13, 2, 2)
primes = wcert.witness.vertices
print(f"witness primes: {primes[0]},{primes[1]} (order index 7) and "
      f"{primes[2]},{primes[3]} (order index 9)")
print("re-check failures:", recheck(wcert) or "none")
print()

print("Certificates survive serialization; forgery does not:")
text = wcert.to_json()
print("round-trip failures:", recheck(certificate_from_json(text)) or "none")
forged = text.replace('"equals": 7', '"equals": 6', 1)
print("forged-order failures:", len(recheck(certificate_from_json(forged))))
