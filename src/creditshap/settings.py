"""The one rule for numeric settings, which `PipelineConfig`,
`ResamplingStrategy`, the model family configs and `quantile_bin` share.
It imports nothing of the package, so every module can use it without a cycle."""

import numbers


def check_setting(name, value, kind, least=None, most=None, above=None, below=None) -> None:
    """Raise a ValueError naming `name` and `value` unless value is a `kind`
    (numbers.Integral or numbers.Real; a bool is neither) with
    least <= value <= most and above < value < below, for each bound given.
    The type is checked first, and NaN lies within no bound."""
    if (
        isinstance(value, kind) and not isinstance(value, bool)
        and (least is None or value >= least) and (most is None or value <= most)
        and (above is None or value > above) and (below is None or value < below)
    ):
        return
    bounds = [f" {op} {bound}" for op, bound in ((">=", least), (">", above), ("<=", most), ("<", below)) if bound is not None]
    raise ValueError(f"{name} must be {'an integer' if kind is numbers.Integral else 'a number'}{' and'.join(bounds)}, not {value!r}")
