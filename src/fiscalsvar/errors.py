"""Exception types shared across the package.

Every error derives from exactly one of three bases, and the base alone
sets the command-line exit code: :class:`ConfigError` 2,
:class:`DataError` 3, :class:`EstimationError` 4.

:func:`fit_error` writes every fit failure's typed error and message; see
:mod:`fiscalsvar.bootstrap` for the draw record it makes.

The JSON loaders check only the JSON shape (:func:`reject_unknown_keys`);
the class that declares a field checks it, an integer with :func:`json_int`;
``ingest.load_csv`` checks, for every caller, the schema map it applies.
"""


class FiscalSvarError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FiscalSvarError):
    """Run configuration is malformed (unknown key, bad value, no countries)."""


class DataError(FiscalSvarError):
    """An input file cannot be read or holds unusable values."""


class EstimationError(FiscalSvarError):
    """The model cannot be estimated, identified or bootstrapped."""


class UnstableDgpError(ConfigError):
    """Synthetic-data generator parameters imply an explosive process."""


class DomainError(DataError):
    """A value is outside the mathematically admissible domain (e.g. CPI <= 0)."""


class InsufficientDataError(DataError):
    """Too few observations for the requested operation."""


class SchemaError(DataError):
    """A CSV file lacks its header, a required column or any data row."""


class QuarterGapError(DataError):
    """Quarterly index is not contiguous (gap or duplicate)."""


class CsvParseError(DataError):
    """A CSV cell could not be parsed (bad date or non-numeric value)."""


class WindowCoverageError(DataError):
    """Requested analysis window extends beyond the loaded data."""


class SampleSizeError(EstimationError):
    """Not enough effective observations to fit the regression."""


class RankError(EstimationError):
    """Regressor matrix is rank deficient (perfect collinearity)."""


class DecompositionError(EstimationError):
    """Cholesky factorization failed: matrix not positive definite.

    ``pivot`` is the 1-based index of the failing pivot.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class DegenerateDenominatorError(EstimationError):
    """Cumulative spending response too close to zero to form a ratio.

    ``horizon`` is the first offending multiplier horizon (1-based).
    """

    def __init__(self, message, horizon=None):
        super().__init__(message)
        self.horizon = horizon


class NonFiniteError(EstimationError):
    """A fit met a non-finite value: an overflowing draw or its results."""


class ShapeError(EstimationError):
    """Array arguments have inconsistent shapes."""


class InferenceError(EstimationError):
    """Too many bootstrap replications failed to produce usable bands."""


def fit_error(
    check: str, index: int = 0, value: float = 0.0, variable: str = "G"
) -> EstimationError:
    """The typed error of a fit whose first failing check is ``check``.

    ``index`` and ``value`` are panel rows and lag order for ``"lags"``,
    usable rows and regressors for ``"sample size"``, 0 and the smallest
    |R_ii| for ``"rank"``, the 1-based pivot and its value for ``"pivot"``,
    the 1-based quarter and the cumulative ``variable`` response for
    ``"denominator"``; ``"non-finite panel"`` and ``"non-finite fit"``
    use neither.
    """
    if check == "lags":
        return SampleSizeError(f"need more than {value} rows to form lags, have {index}")
    if check == "sample size":
        return SampleSizeError(
            f"{index} usable rows for {value} regressors; need T - p >= n_regressors + k"
        )
    if check == "rank":
        return RankError(f"regressor matrix is rank deficient (min |R_ii| = {value:.3e})")
    if check == "pivot":
        return DecompositionError(
            f"pivot {index} is non-positive ({value:.6e}); covariance is not PD", pivot=index
        )
    if check == "denominator":
        return DegenerateDenominatorError(
            f"cumulative {variable} response is {value:.3e} at quarter {index}", horizon=index
        )
    if check == "non-finite panel":
        return NonFiniteError("simulated panel holds non-finite values")
    return NonFiniteError("fit produced non-finite coefficients or responses")


def json_int(value) -> bool:
    """Whether a parsed JSON value is an integer; true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def reject_unknown_keys(payload: dict, known, message: str) -> None:
    """Raise :class:`ConfigError` ``"<message>: <keys>"`` naming, sorted,
    every key of the JSON object ``payload`` outside ``known``."""
    unknown = sorted(map(str, set(payload) - set(known)))
    if unknown:
        raise ConfigError(f"{message}: {', '.join(unknown)}")
