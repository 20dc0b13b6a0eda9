"""Zero-existence certification and localization for continuous maps on disks."""

from .criteria import (Certificate, CheckResult, boundary_nonvanishing,
                       certify_existence, poincare_bohl)
from .degree import (CatResult, WindingResult, classify_cat, sign_obstruction,
                     winding_number)
from .errors import (BudgetExhausted, DegreeLost, DomainError, InvalidInput,
                     MapSyntaxError, NonIntegerExponent, NotANullHomotopy,
                     UndefinedVariable, Unsupported, VanishingOnBoundary,
                     ZeroCertError)
from .geometry import BoundarySampling, Region, sample_sphere
from .homotopy import (HomotopyTrace, SampledMap, ValidityReport,
                       null_homotopy, radial_extension, straight_line)
from .locator import (LocateResult, box_winding, brouwer_fixed_point,
                      locate_zero)
from .mapspec import (BUILTIN_MAPS, MapSpec, builtin_map, evaluate,
                      lipschitz_estimate, parse_map, to_text)

__version__ = "0.1.0"
