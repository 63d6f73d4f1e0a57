import numpy as np
from hypothesis import HealthCheck, settings

# an accepted input that overflows, divides by zero or makes a NaN fails the test
# that gives it; underflow to zero or a subnormal is a result, not a fault
np.seterr(all="raise", under="ignore")

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
