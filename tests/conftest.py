"""Suite-wide Hypothesis settings.

Every property draws the same examples on every run (seeded from a hash of
the test), so a tier-1 result can be reproduced.  `derandomize` implies no
example database; each test keeps its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
