"""Write bench/golden.json: oracle Nu certificates for census-long-orbit.

    python3 bench/golden.py

The graded-slice oracle takes 7 s at p = 59 and 15 s at p = 53, too
long to recompute on every run, so these two certificates are computed
once here, by the same function the run uses live at p = 31.
"""

import json

import checks

PRIMES = (53, 59)
BASE = 5  # anchor character 2 of M7, the least with signature 1


def main():
    certs = {str(p): checks.nu_certificate_oracle(7, checks.M7_LABELS, p, BASE) for p in PRIMES}
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"nu_certificates": certs}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
