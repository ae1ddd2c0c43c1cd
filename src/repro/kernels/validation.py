"""Batch validation: run every kernel of a field against its oracle.

The library's trust story in one call: load all kernels, execute
each on randomised + boundary operands, compare against the
big-integer references, and (optionally) check constant-time trace
equivalence.  Surfaced as ``python -m repro validate``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ParameterError, ReproError
from repro.kernels.registry import build_all_kernels
from repro.kernels.runner import KernelRunner


@dataclass
class ValidationResult:
    """Outcome of one kernel's validation."""

    name: str
    runs: int
    passed: bool
    cycles: int = 0
    constant_time: bool | None = None
    error: str = ""


@dataclass
class ValidationReport:
    """Aggregate of a full validation sweep."""

    modulus_bits: int
    results: list[ValidationResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[ValidationResult]:
        return [r for r in self.results if not r.passed]

    def summary(self) -> str:
        ok = sum(1 for r in self.results if r.passed)
        lines = [
            f"validated {len(self.results)} kernels "
            f"({self.modulus_bits}-bit modulus): {ok} passed, "
            f"{len(self.failures)} failed"
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure.name}: {failure.error}")
        return "\n".join(lines)


def _boundary_values(kernel) -> list[tuple[int, ...]]:
    p = kernel.context.modulus
    arity = len(kernel.input_limbs)
    return [tuple(v for _ in range(arity)) for v in (0, 1, p - 1)]


def validate_kernels(
    modulus: int,
    *,
    trials: int = 3,
    seed: int = 0xA11CE,
    check_constant_time: bool = False,
) -> ValidationReport:
    """Validate the complete kernel matrix for *modulus*.

    Raises :class:`~repro.errors.ParameterError` for fewer than one
    trial: the kernels without boundary operands would run zero times.
    """
    if trials < 1:
        raise ParameterError(f"trials must be at least 1 (got {trials})")
    rng = random.Random(seed)
    report = ValidationReport(modulus_bits=modulus.bit_length())
    for name, kernel in sorted(build_all_kernels(modulus).items()):
        result = ValidationResult(name=name, runs=0, passed=True)
        try:
            runner = KernelRunner(kernel)
            inputs = [kernel.sampler(rng) for _ in range(trials)]
            # boundary operands only where the sampler's domain allows
            if kernel.operation.startswith(("fp_", "int_")):
                inputs.extend(_boundary_values(kernel))
            for values in inputs:
                run = runner.run(*values)
                result.cycles = run.cycles
                result.runs += 1
            if check_constant_time:
                from repro.analysis.ct import verify_constant_time

                ct = verify_constant_time(kernel, samples=3)
                result.constant_time = ct.constant_time
                if not ct.constant_time:
                    result.passed = False
                    result.error = f"not constant time: {ct.detail}"
        except ReproError as exc:
            result.passed = False
            result.error = str(exc)
        report.results.append(result)
    return report
