import re
import types
from pathlib import Path

import zerocert

PUBLIC_API = {
    # criteria
    "Certificate", "CheckResult", "boundary_nonvanishing", "certify_existence",
    "poincare_bohl",
    # degree
    "CatResult", "WindingResult", "classify_cat", "sign_obstruction",
    "winding_number",
    # errors
    "BudgetExhausted", "DegreeLost", "DomainError", "InvalidInput",
    "MapSyntaxError", "NonIntegerExponent", "NotANullHomotopy",
    "UndefinedVariable", "Unsupported", "VanishingOnBoundary", "ZeroCertError",
    # geometry
    "BoundarySampling", "Region", "sample_sphere",
    # homotopy
    "SampledMap", "ValidityReport", "null_homotopy", "radial_extension",
    "straight_line",
    # locator
    "LocateResult", "box_winding", "brouwer_fixed_point", "locate_zero",
    # mapspec
    "BUILTIN_MAPS", "MapSpec", "builtin_map", "evaluate", "lipschitz_estimate",
    "parse_map", "to_text",
}


def _exports():
    return {name for name, value in vars(zerocert).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    assert _exports() == PUBLIC_API


def test_readme_names_every_export():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    start = text.index("Public API")
    listed = set(re.findall(r"`(\w+)`", text[start:text.index("\n\n", start)]))
    assert listed == PUBLIC_API
