"""Parameter defaults and choices that the command-line parser shares with
the library, kept apart so that building the parser imports no numpy."""

DEFAULT_MOMENT_K = 20
DEFAULT_JLL_BOUND = 30
DEFAULT_MARGIN = 0.1      # generator diagonal-dominance surplus
GENERATOR_KINDS = ("M", "inverse-M", "singular-M", "similarity-conjugated-M")
